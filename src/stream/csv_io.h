// CSV persistence for event streams.
//
// Format: header line "id,type,timestamp,<attr names...>" followed by one
// row per event; blank events serialize their type as "<blank>" and empty
// attribute cells.

#ifndef DLACEP_STREAM_CSV_IO_H_
#define DLACEP_STREAM_CSV_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "stream/stream.h"

namespace dlacep {

/// Writes `stream` to `path`. Overwrites an existing file.
Status WriteCsv(const EventStream& stream, const std::string& path);

/// Reads a stream from `path`. Types and attributes are registered in a
/// fresh schema in column order.
StatusOr<EventStream> ReadCsv(const std::string& path);

/// Reads a stream from `path` into `schema`, so that every file read
/// into one schema gives a type name the same id. Columns map to the
/// schema's attributes by name; a file whose attribute set differs from
/// the schema's is InvalidArgument (an empty schema first adopts the
/// file's attributes in column order). Type names the schema lacks are
/// registered after its existing ones.
StatusOr<EventStream> ReadCsv(const std::string& path,
                              std::shared_ptr<Schema> schema);

}  // namespace dlacep

#endif  // DLACEP_STREAM_CSV_IO_H_
