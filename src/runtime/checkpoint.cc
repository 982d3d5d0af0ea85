#include "runtime/checkpoint.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/file_io.h"

namespace dlacep {

namespace {

constexpr char kMagic[4] = {'D', 'L', 'C', 'K'};
// v2 appends the adaptive engine-selection block; v1 files (no block)
// still load, restoring has_adaptive == 0.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

// Bounds applied before any allocation driven by file contents.
constexpr uint64_t kMaxVecLen = 1ull << 32;
constexpr uint64_t kMaxAttrs = 1ull << 16;

void AppendEvent(std::string* buf, const Event& e) {
  AppendScalar<uint64_t>(buf, e.id);
  AppendScalar<int32_t>(buf, e.type);
  AppendScalar<double>(buf, e.timestamp);
  AppendScalar<uint64_t>(buf, e.attrs.size());
  AppendRaw(buf, e.attrs.data(), e.attrs.size() * sizeof(double));
}

template <typename T>
void AppendFlatVec(std::string* buf, const std::vector<T>& v) {
  AppendScalar<uint64_t>(buf, v.size());
  AppendRaw(buf, v.data(), v.size() * sizeof(T));
}

void AppendEventVec(std::string* buf, const std::vector<Event>& v) {
  AppendScalar<uint64_t>(buf, v.size());
  for (const Event& e : v) AppendEvent(buf, e);
}

class Reader : public ByteReader {
 public:
  using ByteReader::ByteReader;

  bool ReadEvent(Event* out) {
    uint64_t id = 0;
    int32_t type = 0;
    double ts = 0.0;
    uint64_t num_attrs = 0;
    if (!ReadScalar(&id) || !ReadScalar(&type) || !ReadScalar(&ts) ||
        !ReadScalar(&num_attrs) || num_attrs > kMaxAttrs) {
      return false;
    }
    std::vector<double> attrs(num_attrs);
    if (!Read(attrs.data(), num_attrs * sizeof(double))) return false;
    *out = Event(id, type, ts, std::move(attrs));
    return true;
  }

  template <typename T>
  bool ReadFlatVec(std::vector<T>* out) {
    uint64_t n = 0;
    if (!ReadScalar(&n) || n > kMaxVecLen) return false;
    out->resize(n);
    return Read(out->data(), n * sizeof(T));
  }

  // Read whole, then assigned: a base-class subobject is no target for a
  // byte copy.
  bool ReadCounters(DurableCounters* out) {
    DurableCounters counters;
    if (!ReadScalar(&counters)) return false;
    *out = counters;
    return true;
  }

  bool ReadEventVec(std::vector<Event>* out) {
    uint64_t n = 0;
    if (!ReadScalar(&n) || n > kMaxVecLen) return false;
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Event e;
      if (!ReadEvent(&e)) return false;
      out->push_back(std::move(e));
    }
    return true;
  }
};

std::string SerializePayload(const CheckpointState& s) {
  std::string p;
  AppendScalar<uint64_t>(&p, s.mark_size);
  AppendScalar<uint64_t>(&p, s.step_size);
  AppendScalar<uint64_t>(&p, s.appended);
  AppendScalar<uint64_t>(&p, s.next_begin);
  AppendScalar<uint64_t>(&p, s.windows_dispatched);
  AppendScalar<uint64_t>(&p, s.last_end);
  AppendScalar<uint64_t>(&p, s.buffer_offset);
  AppendEventVec(&p, s.buffer);
  AppendFlatVec(&p, s.marked_ids);
  AppendEventVec(&p, s.marked_events);
  AppendFlatVec(&p, s.seen);
  AppendFlatVec(&p, s.quarantined);
  AppendScalar<DurableCounters>(&p, s);  // the 13 counters, field order
  AppendScalar<int32_t>(&p, s.controller_level);
  AppendScalar<uint64_t>(&p, s.probe_pass_run);
  AppendScalar<uint64_t>(&p, s.degraded_since_probe);
  // v2: adaptive engine-selection block.
  AppendScalar<uint8_t>(&p, s.has_adaptive);
  AppendScalar<int32_t>(&p, s.adaptive_selected);
  AppendScalar<uint64_t>(&p, s.adaptive_windows_observed);
  AppendScalar<uint64_t>(&p, s.adaptive_switches);
  AppendScalar<uint8_t>(&p, s.adaptive_external_feed);
  AppendFlatVec(&p, s.adaptive_freq_types);
  AppendFlatVec(&p, s.adaptive_freq_counts);
  return p;
}

bool ParsePayload(Reader* r, uint32_t version, CheckpointState* s) {
  return r->ReadScalar(&s->mark_size) && r->ReadScalar(&s->step_size) &&
         r->ReadScalar(&s->appended) && r->ReadScalar(&s->next_begin) &&
         r->ReadScalar(&s->windows_dispatched) &&
         r->ReadScalar(&s->last_end) && r->ReadScalar(&s->buffer_offset) &&
         r->ReadEventVec(&s->buffer) && r->ReadFlatVec(&s->marked_ids) &&
         r->ReadEventVec(&s->marked_events) && r->ReadFlatVec(&s->seen) &&
         r->ReadFlatVec(&s->quarantined) &&
         r->ReadCounters(s) &&
         r->ReadScalar(&s->controller_level) &&
         r->ReadScalar(&s->probe_pass_run) &&
         r->ReadScalar(&s->degraded_since_probe) &&
         (version < 2 ||
          (r->ReadScalar(&s->has_adaptive) &&
           r->ReadScalar(&s->adaptive_selected) &&
           r->ReadScalar(&s->adaptive_windows_observed) &&
           r->ReadScalar(&s->adaptive_switches) &&
           r->ReadScalar(&s->adaptive_external_feed) &&
           r->ReadFlatVec(&s->adaptive_freq_types) &&
           r->ReadFlatVec(&s->adaptive_freq_counts) &&
           s->adaptive_freq_types.size() ==
               s->adaptive_freq_counts.size())) &&
         r->AtEnd();
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  if (dir.empty() || dir.back() == '/') return dir + "checkpoint.dlck";
  return dir + "/checkpoint.dlck";
}

Status SaveCheckpoint(const CheckpointState& state, const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint dir is empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create checkpoint dir " + dir + ": " +
                            std::strerror(errno));
  }
  const std::string payload = SerializePayload(state);
  const uint32_t crc = Crc32(payload.data(), payload.size());

  std::string bytes;
  bytes.reserve(sizeof(kMagic) + sizeof(kVersion) + payload.size() +
                sizeof(crc));
  AppendRaw(&bytes, kMagic, sizeof(kMagic));
  AppendScalar<uint32_t>(&bytes, kVersion);
  bytes += payload;
  AppendScalar<uint32_t>(&bytes, crc);
  return WriteFileAtomic(CheckpointPath(dir), bytes);
}

StatusOr<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  const StatusOr<std::string> read = ReadFile(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();

  const size_t header = sizeof(kMagic) + sizeof(uint32_t);
  if (bytes.size() < header + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a DLCK checkpoint: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version in " +
                                   path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const char* payload = bytes.data() + header;
  const size_t payload_len = bytes.size() - header - sizeof(uint32_t);
  if (Crc32(payload, payload_len) != stored_crc) {
    return Status::InvalidArgument("checksum mismatch in checkpoint: " +
                                   path);
  }
  Reader reader(payload, payload_len);
  CheckpointState state;
  if (!ParsePayload(&reader, version, &state)) {
    return Status::InvalidArgument("corrupt checkpoint payload: " + path);
  }
  return state;
}

}  // namespace dlacep
