#include "stream/csv_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace dlacep {

namespace {

/// Strict numeric cell parse: the whole (trimmed) cell must be one
/// finite double. CSVs are user input — a malformed or NaN cell is a
/// diagnosable error with a row number, never a silent 0.0 (strtod with
/// an ignored end pointer) or a NaN smuggled into the filter features.
Status ParseCell(const std::string& cell, size_t line_no, const char* what,
                 const std::string& path, double* out) {
  const std::string trimmed(Trim(cell));
  char* end = nullptr;
  const double v = std::strtod(trimmed.c_str(), &end);
  if (trimmed.empty() || end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument(
        StrFormat("row %zu: bad %s '%s' in %s", line_no, what,
                  cell.c_str(), path.c_str()));
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(
        StrFormat("row %zu: non-finite %s '%s' in %s", line_no, what,
                  cell.c_str(), path.c_str()));
  }
  *out = v;
  return Status::Ok();
}

}  // namespace

Status WriteCsv(const EventStream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "id,type,timestamp";
  for (size_t i = 0; i < stream.schema().num_attrs(); ++i) {
    out << ',' << stream.schema().AttrName(i);
  }
  out << '\n';
  for (const Event& e : stream) {
    out << e.id << ',' << stream.schema().TypeName(e.type) << ','
        << e.timestamp;
    for (size_t i = 0; i < stream.schema().num_attrs(); ++i) {
      out << ',';
      if (!e.is_blank()) out << e.attr(i);
    }
    out << '\n';
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

StatusOr<EventStream> ReadCsv(const std::string& path) {
  return ReadCsv(path, std::make_shared<Schema>());
}

StatusOr<EventStream> ReadCsv(const std::string& path,
                              std::shared_ptr<Schema> schema) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }
  const std::vector<std::string> header = Split(line, ',');
  if (header.size() < 3 || header[0] != "id" || header[1] != "type" ||
      header[2] != "timestamp") {
    return Status::InvalidArgument("bad CSV header in " + path);
  }
  const size_t num_attrs = header.size() - 3;
  if (schema->num_attrs() == 0 && schema->num_types() == 0) {
    for (size_t i = 0; i < num_attrs; ++i) {
      schema->RegisterAttr(header[3 + i]);
    }
  }
  // column_attr[i]: the schema index of the file's i-th attribute.
  std::vector<size_t> column_attr(num_attrs);
  std::vector<bool> covered(schema->num_attrs(), false);
  for (size_t i = 0; i < num_attrs; ++i) {
    const StatusOr<size_t> index = schema->AttrIndexOf(header[3 + i]);
    if (!index.ok() || covered[index.value()]) {
      return Status::InvalidArgument(
          "attribute columns of " + path +
          " differ from the schema's (unknown or repeated '" +
          header[3 + i] + "')");
    }
    column_attr[i] = index.value();
    covered[index.value()] = true;
  }
  if (num_attrs != schema->num_attrs()) {
    return Status::InvalidArgument(
        StrFormat("%s has %zu attribute columns, the schema %zu",
                  path.c_str(), num_attrs, schema->num_attrs()));
  }

  EventStream stream(schema);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> cells = Split(line, ',');
    if (cells.size() != header.size()) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu cells, expected %zu in %s", line_no,
                    cells.size(), header.size(), path.c_str()));
    }
    double ts = 0.0;
    DLACEP_RETURN_IF_ERROR(
        ParseCell(cells[2], line_no, "timestamp", path, &ts));
    if (cells[1] == "<blank>") {
      stream.AppendBlank(ts);
      continue;
    }
    const TypeId type = schema->RegisterType(cells[1]);
    std::vector<double> attrs(num_attrs);
    for (size_t i = 0; i < num_attrs; ++i) {
      DLACEP_RETURN_IF_ERROR(ParseCell(cells[3 + i], line_no, "attribute",
                                       path, &attrs[column_attr[i]]));
    }
    stream.Append(type, ts, std::move(attrs));
  }
  return stream;
}

}  // namespace dlacep
