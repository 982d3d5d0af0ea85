// Crash-consistent checkpoint/restore for the online runtime.
//
// A checkpoint is a quiescent snapshot of OnlineDlacep's assembler
// state, taken on the assembler thread after all in-flight windows have
// merged: the watermark/arrival-id counter, the un-windowed buffer
// tail, the dedup relay sets, the accumulated marked ids/events, the
// durable stats counters (one DurableCounters block, shared with
// RuntimeStats), and the controller/health state. Restoring one and
// replaying the same deterministic source from the snapshot's watermark
// (StreamSource::Skip) yields marks and matches byte-identical to an
// uninterrupted run.
//
// On-disk format: magic "DLCK" + version + payload + CRC32 of the
// payload. Writes are atomic (common/file_io.h) — serialize to
// `<path>.tmp`, fsync, then rename over the final path (and fsync the
// directory), so a crash mid-write can never leave a torn checkpoint; a
// torn or bit-flipped file fails the CRC at load and restore refuses it.
//
// Restore is only supported for lossless ingest (drop_when_full =
// false): with drops enabled the arrival-id counter no longer equals
// the source position, so Skip() could not find the right suffix.

#ifndef DLACEP_RUNTIME_CHECKPOINT_H_
#define DLACEP_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/stats.h"
#include "stream/event.h"

namespace dlacep {

struct CheckpointConfig {
  /// Directory for checkpoint files; empty disables checkpointing.
  std::string dir;

  /// Write a checkpoint each time this many events have been appended
  /// since the last one (0 = only the final checkpoint at end of run).
  uint64_t every_events = 0;

  /// Start from `dir`'s checkpoint instead of the beginning.
  bool restore = false;
};

/// Serializable snapshot of a quiescent OnlineDlacep run. The stats
/// counters that survive a restart are its DurableCounters base.
struct CheckpointState : DurableCounters {
  // Window-geometry echo: restore refuses a checkpoint taken under a
  // different assembler configuration.
  uint64_t mark_size = 0;
  uint64_t step_size = 0;

  // Assembler progress.
  uint64_t appended = 0;             ///< watermark == arrival-id counter
  uint64_t next_begin = 0;
  uint64_t windows_dispatched = 0;
  uint64_t last_end = 0;
  uint64_t buffer_offset = 0;
  std::vector<Event> buffer;         ///< events [buffer_offset, appended)

  // Relay state.
  std::vector<uint64_t> marked_ids;  ///< arrival order preserved
  std::vector<Event> marked_events;
  std::vector<uint64_t> seen;        ///< healthily marked ids
  std::vector<uint64_t> quarantined; ///< ids relayed via quarantine only

  // Controller / health-guard state machine.
  int32_t controller_level = 0;
  uint64_t probe_pass_run = 0;
  uint64_t degraded_since_probe = 0;  ///< probe-period phase

  // Adaptive engine-selection state (format version >= 2; absent from
  // v1 files, which still load with has_adaptive == 0). Selection is a
  // pure function of the observed windows, so persisting the current
  // choice, the observation counter, and the decayed frequency counts
  // makes a resumed adaptive run byte-identical to an uninterrupted
  // one — including where it would have switched engines next.
  uint8_t has_adaptive = 0;
  int32_t adaptive_selected = 0;  ///< EngineKind at snapshot time
  uint64_t adaptive_windows_observed = 0;
  uint64_t adaptive_switches = 0;
  uint8_t adaptive_external_feed = 0;
  std::vector<int32_t> adaptive_freq_types;   ///< ascending, unique
  std::vector<double> adaptive_freq_counts;   ///< parallel to types
};

/// Final path of the checkpoint file inside `dir`.
std::string CheckpointPath(const std::string& dir);

/// Atomically writes `state` into `dir` (write temp + fsync + rename).
Status SaveCheckpoint(const CheckpointState& state, const std::string& dir);

/// Loads and CRC-validates the checkpoint in `dir`.
StatusOr<CheckpointState> LoadCheckpoint(const std::string& dir);

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_CHECKPOINT_H_
