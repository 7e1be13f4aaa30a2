// Host speed: a fixed reference computation timed beside the workload.
//
// On a shared virtual machine the same code runs up to twice as fast at
// one moment as a few minutes later, because the host's other tenants
// come and go; a run's wall times then say more about the host than about
// the program. Each client therefore times a short reference kernel
// between requests, whose code and input are the benchmark's own and
// never change (they depend neither on the library nor on --seed), and
// scales its measured times by kNominalPassNs / (recent pass time): every
// end-to-end time is reported as it would read on a host where one pass
// takes kNominalPassNs. A change to the library moves the request times
// and not the kernel, so it shows in full.
//
// The kernel does what the library's hot paths do: it scans XML-like
// bytes for markup, hashes names and copies them into small heap strings.
// Its input is as large as exp1_stream_skip's documents, so it streams
// through the caches the way a large request does; against a 32 KiB input
// that stays in the core's own caches, the scaled times of that workload
// spread about twice as much.

#ifndef E2EBENCH_HARNESS_HOSTSPEED_H_
#define E2EBENCH_HARNESS_HOSTSPEED_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// One kernel pass on the nominal host, in nanoseconds: the pass time in
/// the quieter hours on the 4-vCPU Xeon guest the baseline in README.md
/// was taken on.
inline constexpr double kNominalPassNs = 2'000'000;

/// Bytes of reference input one pass scans.
inline constexpr size_t kReferenceBytes = 1536 * 1024;

/// Probes (one pass each) the speed factor is the median of.
inline constexpr size_t kRecentProbes = 15;

/// The fixed reference input: XML-like elements, attributes and text,
/// from a constant seed.
std::string ReferenceText();

/// One pass of the reference kernel over `text`; `names` is scratch
/// space. Returns a checksum so the work cannot be elided.
uint64_t ReferencePass(const std::string& text,
                       std::vector<std::string>* names);

/// One thread's view of the host's speed.
class HostSpeed {
 public:
  HostSpeed();

  /// Times one pass.
  void Probe();

  /// Median pass time over the last kRecentProbes probes (0 before any).
  double pass_ns() const;

  /// The factor that turns a time measured now into the nominal host's:
  /// kNominalPassNs / pass_ns(); 1 before any probe.
  double factor() const;

 private:
  const std::string* text_ = nullptr;
  std::vector<std::string> names_;
  std::array<double, kRecentProbes> recent_{};
  size_t probes_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_HOSTSPEED_H_
