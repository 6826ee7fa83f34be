#include "stamp.hpp"

#include <unistd.h>

#include <fstream>
#include <string>

#include "json.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

void write_stamp_json(std::ostream& os) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool native = PERFBENCH_NATIVE != 0;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(build_type)
     << ", \"ccc_native\": " << (native ? "true" : "false")
     << ", \"byte_identity_pins\": " << (build_type != "Debug" && !native ? "true" : "false")
     << '}';
}

}  // namespace perfbench
