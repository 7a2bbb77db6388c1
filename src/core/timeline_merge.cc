#include "core/timeline_merge.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <istream>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <string_view>
#include <tuple>

#include "core/json_util.h"

namespace qoed::core {

namespace {

// ---- key scanner ----
//
// Every merge orders lines by a key read straight from the JSON text. The
// scanner never copies a line: it finds the first `"key":` of each member
// it needs in one pass over the line's quote characters (the first
// occurrence of that needle anywhere in the line, as a substring search
// would find it) and reads the value in place, through json_util.h's
// number grammar.

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

// A line's merge key. seq is 0 unless the line's seq is an unsigned 64-bit
// integer; device views the line, or *decoded for an escaped label.
struct LineKey {
  double t = 0;
  std::uint64_t seq = 0;
  std::string_view device;
};

// False when the line's "t" is missing or not a complete JSON number that
// fits a finite double, or (with_device) it has no "device" string: such a
// line is not merged.
bool scan_key(std::string_view line, bool with_device, std::string* decoded,
              LineKey* key) {
  static constexpr std::string_view kMembers[] = {"t", "seq", "device"};
  std::string_view v[3];
  find_members(line, std::span(kMembers, with_device ? 3 : 2), v);
  if (!json_number(v[0], &key->t)) return false;
  if (with_device && !json_string(v[2], decoded, &key->device)) return false;
  if (!json_number(v[1], &key->seq)) key->seq = 0;
  return true;
}

// One input of the stream merge: a reused line buffer and its key.
struct StreamReader {
  std::istream* in = nullptr;
  std::string line;
  std::string decoded;
  LineKey key;

  // Moves to the next mergeable line; false at the end of the input.
  bool advance() {
    while (std::getline(*in, line)) {
      if (!line.empty() && scan_key(line, true, &decoded, &key)) return true;
    }
    return false;
  }
};

}  // namespace

std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out) {
  std::vector<StreamReader> readers(inputs.size());
  std::vector<std::size_t> heap;
  heap.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    readers[i].in = inputs[i];
    if (inputs[i] != nullptr && readers[i].advance()) heap.push_back(i);
  }
  // Max-heap on "comes later", so the front is the next line to write;
  // equal keys leave in input order.
  const auto later = [&readers](std::size_t a, std::size_t b) {
    const LineKey& x = readers[a].key;
    const LineKey& y = readers[b].key;
    return std::tie(x.t, x.device, x.seq, a) >
           std::tie(y.t, y.device, y.seq, b);
  };
  std::make_heap(heap.begin(), heap.end(), later);
  std::size_t written = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    StreamReader& r = readers[heap.back()];
    out.write(r.line.data(), static_cast<std::streamsize>(r.line.size()));
    out.put('\n');
    ++written;
    if (r.advance()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return written;
}

TimelineMergeResult merge_timelines_checked(
    const std::vector<DeviceTimeline>& inputs) {
  TimelineMergeResult result;
  result.inputs.reserve(inputs.size());

  // Labels rank in string order (equal labels share a rank), so the sort
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
    std::ostringstream os;
    os << "{\"device\":";
    put_json_string(os, input.device);
    stamps.push_back(os.str());
  }

  struct Entry {
    double t;
    std::uint64_t seq;
    std::uint32_t rank;
    std::uint32_t input;
    std::size_t order;      // position across all inputs: the last tie-break
    std::string_view body;  // the line, without its opening '{'
  };
  std::vector<Entry> entries;
  std::size_t bytes = 0;
  for (std::uint32_t i = 0; i < inputs.size(); ++i) {
    TimelineMergeStats stats;
    stats.device = inputs[i].device;
    double prev_t = 0;
    bool have_prev = false;
    std::string_view rest = inputs[i].jsonl;
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view{}
                                          : rest.substr(nl + 1);
      if (line.empty()) continue;  // blank lines are not corruption
      ++stats.lines;
      // Quarantine rules: a usable line is a JSON object (braces on both
      // ends) carrying a usable "t". Anything else is counted, not merged.
      LineKey key;
      if (line.front() != '{' || line.back() != '}' ||
          !scan_key(line, false, nullptr, &key)) {
        ++stats.malformed;
        continue;
      }
      if (have_prev && key.t < prev_t) ++stats.out_of_order;
      prev_t = std::max(prev_t, key.t);
      have_prev = true;
      entries.push_back(
          {key.t, key.seq, rank[i], i, entries.size(), line.substr(1)});
      bytes += stamps[i].size() + line.size() + 1;
    }
    result.inputs.push_back(std::move(stats));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.t, a.rank, a.seq, a.order) <
                     std::tie(b.t, b.rank, b.seq, b.order);
            });
  std::string& out = result.jsonl;
  out.reserve(bytes);
  for (const Entry& e : entries) {
    out += stamps[e.input];
    if (e.body != "}") out += ',';
    out += e.body;
    out += '\n';
  }
  return result;
}

std::string merge_timelines(const std::vector<DeviceTimeline>& inputs) {
  return merge_timelines_checked(inputs).jsonl;
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
