#include "core/timeline_merge.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <istream>
#include <map>
#include <numeric>
#include <ostream>
#include <span>
#include <string_view>
#include <tuple>

#include "core/json_util.h"

namespace qoed::core {

namespace {

// ---- key scanner ----
//
// The definition of a line's merge key: the scanner never copies a line,
// it finds the first `"key":` of each member it needs in one pass over the
// line's quote characters (the first occurrence of that needle anywhere in
// the line, as a substring search would find it) and reads the value in
// place, through json_util.h's number grammar.

std::string_view skip_space(std::string_view v) {
  std::size_t i = 0;
  while (i < v.size() && json_space(v[i])) ++i;
  return v.substr(i);
}

// Sets values[i] (null on entry) to the line's text after the first
// `"keys[i]":`, leaving it null when that needle does not occur. Stops once
// every key is found.
void find_members(std::string_view line,
                  std::span<const std::string_view> keys,
                  std::span<std::string_view> values) {
  std::size_t missing = keys.size();
  for (std::size_t q = line.find('"'); q != std::string_view::npos &&
                                       missing > 0;
       q = line.find('"', q + 1)) {
    const std::string_view rest = line.substr(q + 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::string_view key = keys[i];
      if (values[i].data() == nullptr && rest.size() >= key.size() + 2 &&
          rest.starts_with(key) && rest[key.size()] == '"' &&
          rest[key.size() + 1] == ':') {
        values[i] = rest.substr(key.size() + 2);
        --missing;
      }
    }
  }
}

// The member value `v` as a complete JSON number of T's type
// (read_json_number): a finite double, or an unsigned 64-bit integer.
template <typename T>
bool json_number(std::string_view v, T* out) {
  return read_json_number(skip_space(v), out) > 0;
}

// A JSON string, viewed in place; only a string holding an escape is
// decoded, into *decoded.
bool json_string(std::string_view v, std::string* decoded,
                 std::string_view* out) {
  v = skip_space(v);
  if (v.empty() || v.front() != '"') return false;
  const std::size_t end = v.find_first_of("\"\\", 1);
  if (end == std::string_view::npos) return false;
  if (v[end] == '"') {
    *out = v.substr(1, end - 1);
    return true;
  }
  if (!JsonLiteParser(v).read_string(decoded)) return false;
  *out = *decoded;
  return true;
}

}  // namespace

bool scan_timeline_key(std::string_view line, bool with_device,
                       std::string* decoded, TimelineKey* key) {
  static constexpr std::string_view kMembers[] = {"t", "seq", "device"};
  std::string_view v[3];
  find_members(line, std::span(kMembers, with_device ? 3 : 2), v);
  if (!json_number(v[0], &key->t)) return false;
  key->device = {};
  if (with_device && !json_string(v[2], decoded, &key->device)) return false;
  if (!json_number(v[1], &key->seq)) key->seq = 0;
  return true;
}

// The prefix holds no quote the scan could take for an earlier needle: a
// label without '"' or '\' cannot hold `t":`, `seq":` or `device":`, so the
// first occurrence of each is the prefix's own, read by the same grammar.
bool prefix_timeline_key(std::string_view line, bool with_device,
                         TimelineKey* key) {
  static constexpr std::string_view kDevice = "\"device\":\"";
  static constexpr std::string_view kT = "\"t\":";
  static constexpr std::string_view kSeq = ",\"seq\":";
  if (!line.starts_with('{')) return false;
  std::string_view rest = line.substr(1);
  bool labelled = false;
  while (rest.starts_with(kDevice)) {
    const std::size_t end = rest.find_first_of("\"\\", kDevice.size());
    if (end == std::string_view::npos || rest[end] != '"' ||
        end + 1 == rest.size() || rest[end + 1] != ',') {
      return false;
    }
    if (!labelled) {
      key->device = rest.substr(kDevice.size(), end - kDevice.size());
      labelled = true;
    }
    rest.remove_prefix(end + 2);
  }
  if ((with_device && !labelled) || !rest.starts_with(kT)) return false;
  rest.remove_prefix(kT.size());
  const std::size_t n = read_json_number(rest, &key->t);
  if (n == 0 || !rest.substr(n).starts_with(kSeq)) return false;
  if (!json_number(rest.substr(n + kSeq.size()), &key->seq)) key->seq = 0;
  if (!with_device) key->device = {};
  return true;
}

namespace {

// Output is handed to a stream in chunks of about this many bytes.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

// Merges inputs that are each already sorted. `before(a, b)`: input a's
// current line leaves before input b's (a total order, the input index
// last); `emit(i)` writes input i's current line and moves to its next,
// false once it has none. The leading input keeps emitting while it stays
// ahead of the runner-up, so the heap moves only when the lead changes.
template <typename Before, typename Emit>
void merge_sorted_inputs(std::vector<std::size_t> live, const Before& before,
                         const Emit& emit) {
  const auto later = [&before](std::size_t a, std::size_t b) {
    return before(b, a);
  };
  std::make_heap(live.begin(), live.end(), later);
  while (!live.empty()) {
    std::pop_heap(live.begin(), live.end(), later);
    const std::size_t lead = live.back();
    live.pop_back();
    bool more = false;
    do {
      more = emit(lead);
    } while (more && (live.empty() || before(lead, live.front())));
    if (more) {
      live.push_back(lead);
      std::push_heap(live.begin(), live.end(), later);
    }
  }
}

// One input of the stream merge: its stream read in blocks into a reused
// buffer, each line viewed in place, and the current line's key.
class BlockReader {
 public:
  explicit BlockReader(std::istream* in) : in_(in), eof_(in == nullptr) {}

  std::string_view line;  // the current line, without its '\n'
  TimelineKey key;

  // Moves to the next mergeable line; false at the end of the input, or
  // once it goes bad: the block being read then is lost, and so is a line
  // the last whole block left unfinished.
  bool advance() {
    for (;;) {
      const char* const from = buf_.data() + begin_;
      const void* const nl = std::memchr(from, '\n', end_ - begin_);
      if (nl != nullptr) {
        const std::size_t len = static_cast<const char*>(nl) - from;
        line = std::string_view(from, len);
        begin_ += len + 1;
      } else if (!eof_) {
        refill();
        continue;
      } else if (begin_ < end_ && !in_->bad()) {
        line = std::string_view(from, end_ - begin_);  // no final '\n'
        begin_ = end_;
      } else {
        return false;
      }
      if (!line.empty() && read_timeline_key(line, true, &decoded_, &key)) {
        return true;
      }
    }
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{256} << 10;

  // Moves the unread tail to the front, grows the buffer when that tail (a
  // line not yet ended) fills more than half of it, and reads behind it.
  void refill() {
    const std::size_t tail = end_ - begin_;
    if (begin_ > 0) std::memmove(buf_.data(), buf_.data() + begin_, tail);
    begin_ = 0;
    end_ = tail;
    if (buf_.size() < kBlockBytes) {
      buf_.resize(kBlockBytes);
    } else if (tail > buf_.size() / 2) {
      buf_.resize(2 * buf_.size());
    }
    in_->read(buf_.data() + end_,
              static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_->gcount());
    eof_ = !*in_;
  }

  std::istream* in_;
  bool eof_;
  std::string buf_;
  std::size_t begin_ = 0, end_ = 0;  // unread bytes: buf_[begin_, end_)
  std::string decoded_;
};

}  // namespace

std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out) {
  std::vector<BlockReader> readers;
  readers.reserve(inputs.size());
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    readers.emplace_back(inputs[i]);
    if (readers.back().advance()) live.push_back(i);
  }
  const auto before = [&readers](std::size_t a, std::size_t b) {
    const TimelineKey& x = readers[a].key;
    const TimelineKey& y = readers[b].key;
    return std::tie(x.t, x.device, x.seq, a) <
           std::tie(y.t, y.device, y.seq, b);
  };
  std::string chunk;
  chunk.reserve(kChunkBytes);
  std::size_t written = 0;
  merge_sorted_inputs(std::move(live), before, [&](std::size_t i) {
    BlockReader& r = readers[i];
    chunk.append(r.line);
    chunk.push_back('\n');
    ++written;
    if (chunk.size() >= kChunkBytes) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
    return r.advance();
  });
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  return written;
}

namespace {

// merge_timelines_checked into `out`; with a `sink`, `out` is a reused
// chunk buffer written to it whenever it passes kChunkBytes, and at the
// end. Returns the per-input stats.
std::vector<TimelineMergeStats> merge_checked(
    const std::vector<DeviceTimeline>& inputs, std::string& out,
    std::ostream* sink) {
  // Labels rank in string order (equal labels share a rank), so the merge
  // compares integers; each input's stamp is rendered once.
  std::vector<std::size_t> by_label(inputs.size());
  std::iota(by_label.begin(), by_label.end(), std::size_t{0});
  std::sort(by_label.begin(), by_label.end(),
            [&inputs](std::size_t a, std::size_t b) {
              return inputs[a].device < inputs[b].device;
            });
  std::vector<std::uint32_t> rank(inputs.size());
  for (std::size_t i = 1; i < by_label.size(); ++i) {
    const bool same =
        inputs[by_label[i]].device == inputs[by_label[i - 1]].device;
    rank[by_label[i]] = rank[by_label[i - 1]] + (same ? 0 : 1);
  }
  std::vector<std::string> stamps;
  stamps.reserve(inputs.size());
  for (const DeviceTimeline& input : inputs) {
    std::string stamp = "{\"device\":";
    append_json_string(stamp, input.device);
    stamps.push_back(std::move(stamp));
  }

  struct Entry {
    double t;
    std::uint64_t seq;
    std::string_view body;  // the line, without its opening '{'
  };
  // Each input's usable lines, keyed once and put in (t, seq) order.
  std::vector<std::vector<Entry>> entries(inputs.size());
  std::vector<TimelineMergeStats> stats(inputs.size());
  std::vector<std::size_t> live;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    TimelineMergeStats& s = stats[i];
    s.device = inputs[i].device;
    std::vector<Entry>& lines = entries[i];
    double prev_t = 0;
    bool sorted = true;
    std::string_view rest = inputs[i].jsonl;
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view{}
                                          : rest.substr(nl + 1);
      if (line.empty()) continue;  // blank lines are not corruption
      ++s.lines;
      // Quarantine rules: a usable line is a JSON object (braces on both
      // ends) carrying a usable "t". Anything else is counted, not merged.
      TimelineKey key;
      if (line.front() != '{' || line.back() != '}' ||
          !read_timeline_key(line, false, nullptr, &key)) {
        ++s.malformed;
        continue;
      }
      if (!lines.empty()) {
        if (key.t < prev_t) ++s.out_of_order;
        const Entry& last = lines.back();
        sorted = sorted &&
                 std::tie(last.t, last.seq) <= std::tie(key.t, key.seq);
      }
      prev_t = std::max(prev_t, key.t);
      lines.push_back({key.t, key.seq, line.substr(1)});
      bytes += stamps[i].size() + line.size() + 1;
    }
    // Stable, so lines whose (t, seq) ties keep their input order.
    if (!sorted) {
      std::stable_sort(lines.begin(), lines.end(),
                       [](const Entry& a, const Entry& b) {
                         return std::tie(a.t, a.seq) < std::tie(b.t, b.seq);
                       });
    }
    if (!lines.empty()) live.push_back(i);
  }

  out.reserve(sink != nullptr ? kChunkBytes : bytes);
  std::vector<std::size_t> next(inputs.size(), 0);
  const auto before = [&](std::size_t a, std::size_t b) {
    const Entry& x = entries[a][next[a]];
    const Entry& y = entries[b][next[b]];
    return std::tie(x.t, rank[a], x.seq, a) < std::tie(y.t, rank[b], y.seq, b);
  };
  merge_sorted_inputs(std::move(live), before, [&](std::size_t i) {
    const Entry& e = entries[i][next[i]];
    out += stamps[i];
    if (e.body != "}") out += ',';
    out += e.body;
    out += '\n';
    if (sink != nullptr && out.size() >= kChunkBytes) {
      sink->write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
    return ++next[i] < entries[i].size();
  });
  if (sink != nullptr) {
    sink->write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  }
  return stats;
}

}  // namespace

TimelineMergeResult merge_timelines_checked(
    const std::vector<DeviceTimeline>& inputs) {
  TimelineMergeResult result;
  result.inputs = merge_checked(inputs, result.jsonl, nullptr);
  return result;
}

std::string merge_timelines(const std::vector<DeviceTimeline>& inputs) {
  return merge_timelines_checked(inputs).jsonl;
}

void merge_timelines(const std::vector<DeviceTimeline>& inputs,
                     std::ostream& out) {
  std::string chunk;
  merge_checked(inputs, chunk, &out);
}

namespace {

std::string_view member(std::string_view line, std::string_view key) {
  std::string_view value;
  find_members(line, std::span(&key, 1), std::span(&value, 1));
  return value;
}

// Group label of a stamped line: "device" if present, else "run-N" from the
// shard path's {"run":N,...} stamp. False for unlabeled lines.
bool group_label(std::string_view line, std::string* out) {
  std::string decoded;
  std::string_view device;
  if (json_string(member(line, "device"), &decoded, &device)) {
    out->assign(device);
    return true;
  }
  std::uint64_t run = 0;
  if (!json_number(member(line, "run"), &run)) return false;
  *out = "run-" + std::to_string(run);
  return true;
}

void for_each_line(std::string_view jsonl,
                   const std::function<void(std::string_view)>& fn) {
  std::string_view rest = jsonl;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty() || line.front() != '{') continue;
    fn(line);
  }
}

double median_of_sorted(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

MergedSummary summarize_merged(std::string_view timeline_jsonl,
                               std::string_view findings_jsonl) {
  struct Acc {
    std::size_t timeline_lines = 0;
    std::size_t findings = 0;
    std::vector<double> total_s;
  };
  std::map<std::string, Acc> groups;

  for_each_line(timeline_jsonl, [&](std::string_view line) {
    std::string label;
    if (!group_label(line, &label)) return;
    ++groups[label].timeline_lines;
  });
  for_each_line(findings_jsonl, [&](std::string_view line) {
    std::string label;
    if (!group_label(line, &label)) return;
    Acc& acc = groups[label];
    ++acc.findings;
    double total = 0;
    if (json_number(member(line, "total_s"), &total)) {
      acc.total_s.push_back(total);
    }
  });

  MergedSummary out;
  for (auto& [label, acc] : groups) {
    MergedGroupSummary g;
    g.label = label;
    g.timeline_lines = acc.timeline_lines;
    g.findings = acc.findings;
    if (!acc.total_s.empty()) {
      g.has_latency = true;
      g.median_total_s = median_of_sorted(acc.total_s);
    }
    out.timeline_lines += g.timeline_lines;
    out.findings += g.findings;
    out.groups.push_back(std::move(g));
  }
  return out;
}

void print_merged_summary(std::ostream& os, const MergedSummary& summary) {
  char buf[64];
  os << "group              timeline  findings  median_total_s\n";
  const auto row = [&](const std::string& label, std::size_t timeline,
                       std::size_t findings, bool has_latency,
                       double median) {
    if (has_latency) {
      std::snprintf(buf, sizeof buf, "%-18s %8zu  %8zu  %14.6f\n",
                    label.c_str(), timeline, findings, median);
    } else {
      std::snprintf(buf, sizeof buf, "%-18s %8zu  %8zu  %14s\n",
                    label.c_str(), timeline, findings, "-");
    }
    os << buf;
  };
  for (const MergedGroupSummary& g : summary.groups) {
    row(g.label, g.timeline_lines, g.findings, g.has_latency,
        g.median_total_s);
  }
  row("TOTAL", summary.timeline_lines, summary.findings, false, 0);
}

}  // namespace qoed::core
