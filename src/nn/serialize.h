// Binary save/load of model parameters.
//
// Format v2: magic "DLNN" + version, then a payload of per-parameter
// records (name length, name, rows, cols, row-major doubles), followed by
// a CRC32 of the payload. Loading matches parameters by name and fails
// when a stored parameter is missing or shaped differently — retraining
// on a changed architecture should be explicit, not silent. Loads are
// staged: no parameter is overwritten until the whole file validates
// (checksum, shape bounds, finite weights), so a corrupt file can never
// leave the model half-updated. Legacy v1 files (no checksum) still load,
// with a warning. Saves replace the file atomically (common/file_io.h),
// so a crash mid-save leaves the previous model intact.

#ifndef DLACEP_NN_SERIALIZE_H_
#define DLACEP_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tape.h"

namespace dlacep {

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

}  // namespace dlacep

#endif  // DLACEP_NN_SERIALIZE_H_
