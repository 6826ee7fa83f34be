// Machine and build stamp printed with every result.
#pragma once

#include <ostream>

namespace perfbench {

/// Writes {"nproc", "cpu_model", "compiler", "build_type", "ccc_native",
/// "byte_identity_pins"} as one JSON object. byte_identity_pins is false for
/// a Debug or CCC_NATIVE build: the repository's byte-identity pins hold
/// only for the default flags (CMakeLists.txt, CCC_NATIVE comment).
void write_stamp_json(std::ostream& os);

}  // namespace perfbench
