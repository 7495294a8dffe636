#include "probe.h"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

ProbeReading measure() {
  ProbeReading r;
  {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    r.alu_ms = ms_since(t0);
  }
  {
    // Sattolo's algorithm: one random cycle through every slot.
    constexpr std::size_t kSlots = (16u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> next(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) next[i] = std::uint32_t(i);
    std::uint64_t s = 0x243F6A8885A308D3ULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t j = (s >> 33) % i;
      std::swap(next[i], next[j]);
    }
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::size_t step = 0; step < 2'000'000; ++step) at = next[at];
    volatile std::uint32_t sink = at;
    (void)sink;
    r.chase_ms = ms_since(t0);
  }
  return r;
}

}  // namespace

ProbeReading host_probe() {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    const ProbeReading r = measure();
    const ssize_t n = ::write(fds[1], &r, sizeof r);
    ::_exit(n == sizeof r ? 0 : 1);
  }
  ::close(fds[1]);
  ProbeReading r;
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return got == sizeof r ? r : ProbeReading{};
}

}  // namespace perfbench
