#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

#include "support/strings.hpp"

namespace ccref::sim {

int LatencyHistogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);  // exact for tiny latencies
  const int decade = 63 - std::countl_zero(v);
  // Linear position of the top 3 bits below the leading one.
  const int sub = static_cast<int>((v >> (decade - 3)) & (kSub - 1));
  return decade * kSub + sub;
}

std::uint64_t LatencyHistogram::bucket_hi(int b) {
  if (b < kSub) return static_cast<std::uint64_t>(b);
  const int decade = b / kSub;
  const int sub = b % kSub;
  // Upper edge: next sub-bucket's lower edge minus one.
  return ((std::uint64_t{kSub} + sub + 1) << (decade - 3)) - 1;
}

void LatencyHistogram::record(std::uint64_t cycles) {
  const int b = bucket_of(cycles);
  if (buckets_.size() <= static_cast<std::size_t>(b))
    buckets_.resize(static_cast<std::size_t>(b) + 1, 0);
  ++buckets_[static_cast<std::size_t>(b)];
  ++count_;
  sum_ += cycles;
  max_ = std::max(max_, cycles);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (buckets_.size() < other.buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the percentile sample, 1-based ceiling (p99 of 100 = the 99th).
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_) + 0.9999999999);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank && buckets_[b])
      return std::min(bucket_hi(static_cast<int>(b)), max_);
  }
  return max_;
}

std::string Stall::to_string() const {
  if (reason.empty()) return "";
  std::string out = reason;
  if (!op.empty() || remote >= 0)
    out += strf(" [op=%s node=%d up=%zu down=%zu hbuf=%zu]",
                op.empty() ? "-" : op.c_str(), remote, up_occupancy,
                down_occupancy, home_buffer);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Stall& s) {
  return os << s.to_string();
}

double DesStats::fairness_index() const {
  if (nodes.empty()) return 1.0;
  double sum = 0, sumsq = 0;
  for (const auto& n : nodes) {
    sum += static_cast<double>(n.completed);
    sumsq += static_cast<double>(n.completed) *
             static_cast<double>(n.completed);
  }
  if (sumsq == 0) return 1.0;
  return (sum * sum) / (static_cast<double>(nodes.size()) * sumsq);
}

void DesStats::merge(const DesStats& other) {
  events += other.events;
  cycles = std::max(cycles, other.cycles);
  req += other.req;
  ack += other.ack;
  nack += other.nack;
  repl += other.repl;
  completions += other.completions;
  ops_total += other.ops_total;
  retries += other.retries;
  memory_accesses += other.memory_accesses;
  c2c_transfers += other.c2c_transfers;
  write_backs += other.write_backs;
  home_busy_cycles += other.home_busy_cycles;
  wbuf_hits += other.wbuf_hits;
  wbuf_drains += other.wbuf_drains;
  instances += other.instances;
  windows += other.windows;
  latency.merge(other.latency);
  if (nodes.size() < other.nodes.size()) nodes.resize(other.nodes.size());
  for (std::size_t i = 0; i < other.nodes.size(); ++i) {
    NodeOps& n = nodes[i];
    const NodeOps& o = other.nodes[i];
    n.completed += o.completed;
    n.latency_total += o.latency_total;
    n.latency_max = std::max(n.latency_max, o.latency_max);
  }
  finished = finished && other.finished;
  if (!stall.stalled() && other.stall.stalled()) stall = other.stall;
}

}  // namespace ccref::sim
