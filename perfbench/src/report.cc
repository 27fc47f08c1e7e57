#include "report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "nn/kernels/kernels.h"
#include "util/parallel.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseKb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

bool WithinParity(double got, double want) {
  return std::isfinite(got) &&
         std::abs(got - want) <= 1e-6 * std::max(1.0, std::abs(want));
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::map<std::string, std::string> Fingerprint(uint64_t seed) {
  namespace kernels = causaltad::nn::kernels;
  return {
      {"cpu_model", CpuModel()},
      {"kernel_isa", kernels::IsaName(kernels::ActiveIsa())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"parallel_threads",
       std::to_string(causaltad::util::ParallelThreads())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"compiler", __VERSION__},
      {"seed", std::to_string(seed)},
  };
}

void Result::Fail(int64_t count, const std::string& why) {
  failed += count;
  if (errors.size() < 16) errors.push_back(why);
}

void Result::Merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 16) errors.push_back(e);
  }
  for (const auto& [name, metric] : other.metrics) metrics[name] = metric;
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << '"' << JsonEscape(name)
        << "\": {\"value\": " << Number(metric.value) << ", \"unit\": \""
        << JsonEscape(metric.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string JsonObject(const std::map<std::string, std::string>& fields) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [key, value] : fields) {
    out << (first ? "" : ", ") << '"' << JsonEscape(key) << "\": \""
        << JsonEscape(value) << '"';
    first = false;
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
