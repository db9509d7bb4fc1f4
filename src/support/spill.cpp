#include "support/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "support/strings.hpp"

namespace ccref {

namespace {
constexpr std::size_t kPage = 4096;

std::size_t page_round(std::size_t bytes) {
  return (bytes + kPage - 1) & ~(kPage - 1);
}
}  // namespace

SpillArena::SpillArena(std::string dir, std::size_t max_bytes)
    : dir_(std::move(dir)),
      max_bytes_(max_bytes == 0 ? std::numeric_limits<std::size_t>::max()
                                : max_bytes) {
  if (dir_.empty()) return;
  if (::mkdir(dir_.c_str(), 0700) != 0 && errno != EEXIST) return;
  // Probe writability once so a read-only directory fails at construction,
  // when the caller can still report a usable error, not mid-exploration.
  std::string probe = dir_ + "/.ccref-spill-probe";
  int fd = ::open(probe.c_str(), O_CREAT | O_RDWR, 0600);
  if (fd < 0) return;
  ::close(fd);
  ::unlink(probe.c_str());
  ok_ = true;
}

SpillArena::~SpillArena() = default;  // chunks unmap via their owners

std::byte* SpillArena::map_chunk(std::size_t bytes) {
  if (!ok_ || bytes == 0) return nullptr;
  const std::size_t rounded = page_round(bytes);
  std::lock_guard<std::mutex> guard(mutex_);
  if (mapped_.load(std::memory_order_relaxed) + rounded > max_bytes_)
    return nullptr;
  std::string path = strf("%s/chunk-%llu.spill", dir_.c_str(),
                          static_cast<unsigned long long>(next_id_++));
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_EXCL, 0600);
  if (fd < 0) return nullptr;
  // Reserve every block now rather than sizing a sparse file: a write
  // through a MAP_SHARED mapping that finds the disk full arrives as
  // SIGBUS, while a refused reservation here is an ordinary nullptr that
  // the pools turn into an Unfinished run.
  if (::posix_fallocate(fd, 0, static_cast<off_t>(rounded)) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return nullptr;
  }
  void* p = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                   0);
  // The mapping (not the directory entry) owns the blocks: unlink now so a
  // crashed or killed run leaves no files behind.
  ::close(fd);
  ::unlink(path.c_str());
  if (p == MAP_FAILED) return nullptr;
  mapped_.fetch_add(rounded, std::memory_order_relaxed);
  return static_cast<std::byte*>(p);
}

void SpillArena::unmap_chunk(std::byte* p, std::size_t bytes) {
  if (p == nullptr) return;
  const std::size_t rounded = page_round(bytes);
  ::munmap(p, rounded);
  mapped_.fetch_sub(rounded, std::memory_order_relaxed);
}

void SpillArena::note_cold(std::byte* p, std::size_t bytes) {
  if (p == nullptr) return;
  const std::size_t rounded = page_round(bytes);
  ::msync(p, rounded, MS_ASYNC);
  ::madvise(p, rounded, MADV_DONTNEED);
}

}  // namespace ccref
