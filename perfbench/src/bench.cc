#include "bench.h"

#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>

#include "persist/crc32c.h"

namespace perfbench {

void Tracer::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = SecondsSince(open.start);
  const double self = dur - open.child_s;
  LayerStats& s = layers_[static_cast<size_t>(open.layer)];
  ++s.calls;
  s.total_s += dur;
  s.self_s += self;
  s.call_s.push_back(dur);
  s.self_call_s.push_back(self);
  if (!stack_.empty()) stack_.back().child_s += dur;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Measure::Throughput() const {
  double busy = 0.0;
  for (double s : op_s) busy += s;
  double work = 0.0;
  for (double w : session_work) work += w;
  return busy > 0.0 ? work / busy : 0.0;
}

namespace {

/// Each operation position's fastest latency across the sessions, or empty
/// when the sessions do not all run the same number of operations (every
/// session of an aligned workload does the same work).
std::vector<double> BestSessionProfile(const Measure& m) {
  std::vector<double> best;
  size_t begin = 0;
  for (size_t end : m.session_end) {
    const size_t ops = end - begin;
    if (best.empty()) {
      best.assign(m.op_s.begin() + static_cast<std::ptrdiff_t>(begin),
                  m.op_s.begin() + static_cast<std::ptrdiff_t>(end));
    } else if (ops != best.size()) {
      return {};
    } else {
      for (size_t i = 0; i < ops; ++i) {
        best[i] = std::min(best[i], m.op_s[begin + i]);
      }
    }
    begin = end;
  }
  return best;
}

}  // namespace

EndToEnd Summarize(const Measure& m, double tail_q, size_t window_sessions,
                   bool aligned) {
  std::vector<double> throughput, p50, tail;
  const size_t sessions = m.session_s.size();
  // A trailing partial window counts only when it is the only window.
  const size_t full = sessions / window_sessions;
  const size_t windows = full > 0 ? full : (sessions > 0 ? 1 : 0);
  for (size_t w = 0; w < windows; ++w) {
    const size_t first = w * window_sessions;
    const size_t last = std::min(sessions, first + window_sessions) - 1;
    const size_t op_begin = first == 0 ? 0 : m.session_end[first - 1];
    const std::vector<double> ops(
        m.op_s.begin() + static_cast<std::ptrdiff_t>(op_begin),
        m.op_s.begin() + static_cast<std::ptrdiff_t>(m.session_end[last]));
    double busy = 0.0, work = 0.0;
    for (double s : ops) busy += s;
    for (size_t i = first; i <= last; ++i) work += m.session_work[i];
    if (ops.empty() || busy <= 0.0) continue;
    throughput.push_back(work / busy);
    p50.push_back(Median(ops));
    tail.push_back(Quantile(ops, tail_q));
  }
  EndToEnd e;
  e.windows = p50.size();
  e.throughput_per_s = Quantile(throughput, 0.75);
  e.op_p50_ms = Quantile(p50, 0.25) * 1e3;
  e.op_tail_ms = Quantile(tail, 0.25) * 1e3;
  e.session_ms = Quantile(m.session_s, 0.25) * 1e3;
  if (aligned) {
    const std::vector<double> best = BestSessionProfile(m);
    double busy = 0.0;
    for (double s : best) busy += s;
    if (busy > 0.0) {
      e.throughput_per_s = m.session_work.front() / busy;
      e.op_p50_ms = Median(best) * 1e3;
      e.op_tail_ms = Quantile(best, tail_q) * 1e3;
      e.session_ms =
          *std::min_element(m.session_s.begin(), m.session_s.end()) * 1e3;
    }
  }
  return e;
}

int DefaultLanes(const Args& args) {
  if (args.lanes > 0) return args.lanes;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

uint32_t DigestBytes(uint32_t crc, const void* data, size_t len) {
  return longdp::persist::Crc32cExtend(crc, data, len);
}

uint32_t DigestInts(uint32_t crc, const std::vector<int64_t>& values) {
  return DigestBytes(crc, values.data(), values.size() * sizeof(int64_t));
}

uint32_t DigestDouble(uint32_t crc, double value) {
  return DigestBytes(crc, &value, sizeof(value));
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6E736673UL:
      return "nfs";
    case 0x65735546UL:
      return "fuse";
    case 0xF2F52010UL:
      return "f2fs";
    case 0x2FC12FC1UL:
      return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

}  // namespace perfbench
