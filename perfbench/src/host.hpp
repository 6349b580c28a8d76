#pragma once
// Process and host facts every result carries: resident memory, the
// CPUs this process may run on, and the host kernel ISA.

#include <cstddef>
#include <string>

namespace perfbench {

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Current resident set of this process, in MiB.
double current_rss_mib();

/// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus();

/// Name of the SIMD table the host kernels dispatch to.
std::string kernel_isa();

/// Machine-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  unsigned long long total = 0;
  /// Time the hypervisor ran something else while this VM wanted a CPU.
  unsigned long long steal = 0;
};
CpuTicks cpu_ticks();

/// Share of CPU time stolen between two readings (0 when unknown).
double steal_share(const CpuTicks& from, const CpuTicks& to);

}  // namespace perfbench
