// The `host` block every committed BENCH_*.json row carries, so a number
// always says where it came from. Benches are compiled with
// PSMR_BUILD_TYPE (bench/CMakeLists.txt).
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

namespace psmr::bench {

/// CPU count, CPU model (first /proc/cpuinfo "model name") and the CMake
/// build type the bench was compiled with, as one JSON object.
inline std::string host_json() {
  std::string model = "unknown";
  if (FILE* cpuinfo = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), cpuinfo) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) != 0 || colon == nullptr) continue;
      model.clear();
      for (const char* c = colon + 1; *c != '\0'; ++c) {
        // Drops the newline and anything that would need JSON escaping.
        if (*c != '\n' && *c != '"' && *c != '\\' && !(model.empty() && *c == ' ')) {
          model += *c;
        }
      }
      break;
    }
    std::fclose(cpuinfo);
  }
  return "{\"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + model + "\", \"build_type\": \"" PSMR_BUILD_TYPE "\"}";
}

}  // namespace psmr::bench
