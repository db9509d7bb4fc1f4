#include "host_ref.hpp"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBigWords = std::size_t{4} << 20;     // 32 MiB
constexpr std::size_t kSmallWords = std::size_t{128} << 10;  // 1 MiB
constexpr long kBigReads = 3'000'000;
constexpr long kSmallReads = 5'000'000;
constexpr long kChain = 20'000'000;

constexpr std::uint64_t kMul = 6364136223846793005ull;

volatile std::uint64_t g_sink;  // keeps the loops' results alive

// Sums `reads` pseudo-random words of table[0, words); words is a power of 2.
std::uint64_t random_reads(const std::uint64_t* table, std::size_t words,
                           long reads) {
  std::uint64_t x = 1, sum = 0;
  for (long i = 0; i < reads; ++i) {
    x = x * kMul + 1;
    sum += table[(x >> 20) & (words - 1)];
  }
  return sum;
}

std::uint64_t multiply_chain(long steps) {
  std::uint64_t x = 1;
  for (long i = 0; i < steps; ++i) x = x * kMul + 1442695040888963407ull;
  return x;
}

// An anonymous mapping of `words` filled words, unmapped on destruction.
class Table {
 public:
  explicit Table(std::size_t words) : bytes_(words * sizeof(std::uint64_t)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::uint64_t*>(p);
    for (std::size_t i = 0; i < words; ++i) data_[i] = i * 0x9E3779B97F4A7C15ull;
  }
  ~Table() { munmap(data_, bytes_); }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  [[nodiscard]] const std::uint64_t* data() const { return data_; }

 private:
  std::size_t bytes_;
  std::uint64_t* data_ = nullptr;
};

double burst() {
  const Table big(kBigWords), small(kSmallWords);
  const auto t0 = Clock::now();
  std::uint64_t sum = random_reads(big.data(), kBigWords, kBigReads);
  sum += random_reads(small.data(), kSmallWords, kSmallReads);
  sum += multiply_chain(kChain);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  g_sink = sum;
  return s;
}

}  // namespace

double HostReference::run() {
  // The burst runs in a child process, so its tables never count towards
  // this process's peak RSS and leave its heap as it was.
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("host reference: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("host reference: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1;
    try {
      s = burst();
    } catch (...) {
    }
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent && s > 0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  const bool got = read(fds[0], &s, sizeof s) == sizeof s;
  close(fds[0]);
  int status = 0;
  pid_t waited;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (!got || waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(s > 0))
    throw std::runtime_error("host reference: the burst failed");
  return s;
}

}  // namespace perfbench
