#include "helpers.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace hostbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

std::optional<double> p90(const std::vector<double>& values) {
  if (values.size() < kMinP90Samples) return std::nullopt;
  return percentile(values, 0.9);
}

double class_median_gmean(
    const std::map<std::string, std::vector<double>>& by_class) {
  if (by_class.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [cls, values] : by_class) log_sum += std::log(median(values));
  return std::exp(log_sum / static_cast<double>(by_class.size()));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_ns(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.start; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;
  for (const Interval& c : children) {
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

void SpanRecorder::begin(const char* name, std::int64_t op) {
  if (!enabled_) return;
  Open o{name, now_ns(), op, -1, {}};
  // A span is kept only while its parent was (or it is a root), so every
  // kept parent index points at a kept span.
  const bool parent_kept = stack_.empty() || stack_.back().kept_index >= 0;
  if (parent_kept && spans_.size() < max_kept_) {
    o.kept_index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, o.start, 0,
                          stack_.empty() ? -1 : stack_.back().kept_index, op});
  }
  stack_.push_back(std::move(o));
}

void SpanRecorder::end() {
  if (!enabled_ || stack_.empty()) return;
  Open o = std::move(stack_.back());
  stack_.pop_back();
  close(o.name, o.start, now_ns(), o.kept_index, o.children);
}

void SpanRecorder::add(const char* name, std::int64_t start, std::int64_t end,
                       std::int64_t op) {
  if (!enabled_) return;
  int kept = -1;
  const bool parent_kept = stack_.empty() || stack_.back().kept_index >= 0;
  if (parent_kept && spans_.size() < max_kept_) {
    kept = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, start, 0, stack_.empty() ? -1 : stack_.back().kept_index,
             op});
  }
  close(name, start, end, kept, {});
}

void SpanRecorder::close(const char* name, std::int64_t start,
                         std::int64_t end, int kept_index,
                         const std::vector<Interval>& children) {
  if (kept_index >= 0) {
    spans_[static_cast<std::size_t>(kept_index)].end = end;
  } else {
    ++dropped_;
  }
  const std::int64_t dur = end - start;
  Totals& t = totals_[name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - covered_ns({start, end}, children);
  if (!stack_.empty()) stack_.back().children.push_back({start, end});
}

SpanRecorder::Totals SpanRecorder::totals(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

std::string SpanRecorder::to_json() const {
  std::ostringstream o;
  o << "{\n  \"dropped\": " << dropped_ << ",\n  \"totals\": {";
  bool first = true;
  for (const auto& [name, t] : totals_) {
    o << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
      << t.count << ", \"total_ns\": " << t.total_ns
      << ", \"self_ns\": " << t.self_ns << "}";
    first = false;
  }
  o << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    o << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << i << ", \"name\": \""
      << s.name << "\", \"start_ns\": " << s.start
      << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op << "}";
  }
  o << "\n  ]\n}\n";
  return o.str();
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream f(path);
  f << to_json();
  return static_cast<bool>(f);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(int index, int width) {
  if (cpus_.empty()) return;
  const int n = static_cast<int>(cpus_.size());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int j = 0; j < std::min(std::max(width, 1), n); ++j) {
    CPU_SET(cpus_[static_cast<std::size_t>((index + j) % n)], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt9(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void Tally::fail(std::string note) {
  ++failed;
  if (notes.size() < 10) notes.push_back(std::move(note));
}

bool Golden::load(const std::string& path, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string key, value, extra;
    if (!(in >> key >> value) || (in >> extra)) {
      *error = path + ":" + std::to_string(lineno) + ": expected 'key value'";
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Golden::save(const std::string& path) const {
  std::ofstream f(path);
  f << "# Pinned simulated outputs of the host wall-clock benchmark.\n"
       "# Regenerate only when a change is meant to alter simulated\n"
       "# results: hostbench --write-golden <path> (see README.md).\n";
  for (const auto& [k, v] : values_) f << k << ' ' << v << '\n';
  return static_cast<bool>(f);
}

const std::string* Golden::find(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Golden::check(const std::string& key, const std::string& value,
                   Tally& tally) {
  if (recording_) {
    values_[key] = value;
    return true;
  }
  const std::string* pinned = find(key);
  if (pinned == nullptr) {
    tally.fail(key + ": no pinned value");
    return false;
  }
  if (*pinned != value) {
    tally.fail(key + ": got " + value + ", pinned " + *pinned);
    return false;
  }
  return true;
}

bool Golden::check_near(const std::string& key, double value, double rel_tol,
                        Tally& tally, double* max_drift) {
  if (recording_) return true;
  const std::string* pinned = find(key);
  if (pinned == nullptr) {
    tally.fail(key + ": no pinned value");
    return false;
  }
  const double ref = std::strtod(pinned->c_str(), nullptr);
  const double drift = ref == 0.0 ? std::abs(value) : std::abs(value / ref - 1);
  *max_drift = std::max(*max_drift, drift);
  if (!(drift <= rel_tol)) {
    tally.fail(key + ": got " + fmt9(value) + ", pinned " + *pinned);
    return false;
  }
  return true;
}

std::string CollOp::key() const {
  std::string k = std::string(han::coll::coll_kind_name(kind)) + "." +
                  std::to_string(bytes);
  if (kind == han::coll::CollKind::Bcast) k += ".r" + std::to_string(root);
  return k;
}

OpSequence::OpSequence(std::uint64_t seed,
                       std::vector<han::coll::CollKind> kinds,
                       std::vector<std::size_t> sizes, std::vector<int> roots)
    : rng_(seed),
      kinds_(std::move(kinds)),
      sizes_(std::move(sizes)),
      roots_(std::move(roots)) {}

std::vector<CollOp> OpSequence::next_round() {
  std::vector<CollOp> round;
  for (han::coll::CollKind k : kinds_) {
    for (std::size_t b : sizes_) round.push_back(CollOp{k, b, 0});
  }
  // Fisher-Yates with the simulator's portable generator, so a seed gives
  // the same order on every standard library.
  for (std::size_t i = round.size(); i > 1; --i) {
    std::swap(round[i - 1], round[rng_.next_below(i)]);
  }
  for (CollOp& op : round) {
    if (op.kind == han::coll::CollKind::Bcast) {
      op.root = roots_[rng_.next_below(roots_.size())];
    }
  }
  return round;
}

}  // namespace hostbench
