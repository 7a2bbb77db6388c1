#include "core/timeline_merge.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <ostream>
#include <span>
#include <string_view>
#include <thread>
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

// Reads n bytes of `fd` at `at`; false on an error or a short file.
bool read_fully(int fd, char* dst, std::size_t n, std::uint64_t at) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, n, static_cast<off_t>(at));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    n -= static_cast<std::size_t>(got);
    at += static_cast<std::uint64_t>(got);
  }
  return true;
}

// One input of a stream merge: an istream, or a byte range of a file read
// with pread, read in blocks into a buffer that is reused when the reader
// is opened again; each line is viewed in place, with its key.
class BlockReader {
 public:
  std::string_view line;  // the current line, without its '\n'
  TimelineKey key;

  void open(std::istream* in) {
    in_ = in;
    block_ = kBlockBytes;
    restart(in == nullptr);
  }
  // The bytes [from, to) of `fd`, in blocks no larger than the range.
  void open(int fd, std::uint64_t from, std::uint64_t to) {
    in_ = nullptr;
    fd_ = fd;
    pos_ = from;
    stop_ = to;
    block_ = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockBytes, to - from));
    restart(from == to);
  }
  bool failed() const { return failed_; }

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
      } else if (begin_ < end_ && !failed_) {
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

  void restart(bool empty) {
    eof_ = empty;
    failed_ = false;
    begin_ = end_ = 0;
  }

  // Moves the unread tail to the front, grows the buffer to a block, or to
  // twice that tail (a line not yet ended), and reads behind it.
  void refill() {
    const std::size_t tail = end_ - begin_;
    if (begin_ > 0) std::memmove(buf_.data(), buf_.data() + begin_, tail);
    begin_ = 0;
    end_ = tail;
    if (buf_.size() < std::max(block_, 2 * tail)) {
      buf_.resize(std::max(block_, 2 * tail));
    }
    const std::size_t room = buf_.size() - end_;
    if (in_ != nullptr) {
      in_->read(buf_.data() + end_, static_cast<std::streamsize>(room));
      end_ += static_cast<std::size_t>(in_->gcount());
      eof_ = !*in_;
      failed_ = in_->bad();
      return;
    }
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(room, stop_ - pos_));
    failed_ = !read_fully(fd_, buf_.data() + end_, n, pos_);
    if (!failed_) {
      end_ += n;
      pos_ += n;
    }
    eof_ = failed_ || pos_ == stop_;
  }

  std::istream* in_ = nullptr;
  int fd_ = -1;
  std::uint64_t pos_ = 0, stop_ = 0;  // the file range still to read
  std::size_t block_ = kBlockBytes;
  bool eof_ = true;
  bool failed_ = false;
  std::string buf_;
  std::size_t begin_ = 0, end_ = 0;  // unread bytes: buf_[begin_, end_)
  std::string decoded_;
};

// Merges the opened readers' lines by (t, device, seq, position in
// `readers`) into `out`; with `os`, `out` is a chunk written to it whenever
// it reaches kChunkBytes, and at the end. Returns the lines merged.
std::size_t merge_readers(std::span<BlockReader* const> readers,
                          std::string& out, std::ostream* os) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (readers[i]->advance()) live.push_back(i);
  }
  const auto before = [readers](std::size_t a, std::size_t b) {
    const TimelineKey& x = readers[a]->key;
    const TimelineKey& y = readers[b]->key;
    return std::tie(x.t, x.device, x.seq, a) <
           std::tie(y.t, y.device, y.seq, b);
  };
  std::size_t written = 0;
  merge_sorted_inputs(std::move(live), before, [&](std::size_t i) {
    BlockReader& r = *readers[i];
    out.append(r.line);
    out.push_back('\n');
    ++written;
    if (os != nullptr && out.size() >= kChunkBytes) {
      os->write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
    return r.advance();
  });
  if (os != nullptr) {
    os->write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  }
  return written;
}

}  // namespace

std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out) {
  std::vector<BlockReader> readers(inputs.size());
  std::vector<BlockReader*> open;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    readers[i].open(inputs[i]);
    open.push_back(&readers[i]);
  }
  std::string chunk;
  chunk.reserve(kChunkBytes);
  return merge_readers(open, chunk, &out);
}

namespace {

// ---- the partitioned merge of sorted files ----

// A line's merge key with its input, owning the label: a sampled line's,
// or the key a partition starts at.
struct FullKey {
  double t = 0;
  std::string device;
  std::uint64_t seq = 0;
  std::size_t input = 0;
};

bool key_less(const FullKey& a, const FullKey& b) {
  return std::tie(a.t, a.device, a.seq, a.input) <
         std::tie(b.t, b.device, b.seq, b.input);
}

// Whether input `input`'s line keyed `k` leaves before `b`.
bool leaves_before(const TimelineKey& k, std::size_t input, const FullKey& b) {
  const std::string_view device = b.device;
  return std::tie(k.t, k.device, k.seq, input) <
         std::tie(b.t, device, b.seq, b.input);
}

// A keyed line of one file: its key, and its bytes [start, end), '\n'
// included.
struct Sample {
  FullKey key;
  std::uint64_t start = 0, end = 0;
};

// One read of a file window [from, to) for the partition search, and what
// it shows about where the partition starting at `b` starts: keyed lines
// that leave before `b`, then the first that does not. Only whole lines
// are keyed.
class WindowProbe {
 public:
  std::uint64_t first = 0;  // the first line start at or after `from`
  std::uint64_t next = 0;   // the line start after the last line scanned
  bool below = false;       // a keyed line before `b` was scanned
  bool found = false;       // a keyed line not before `b`: its bytes
  std::uint64_t start = 0, end = 0;  // [start, end) and its key, which
  TimelineKey key;  // views this probe's buffers until its next read

  // Reads at least `bytes` from `from` (more when no whole line fits) and
  // scans its lines up to the first keyed one not before `b`. False on a
  // read error.
  bool read(int fd, std::uint64_t from, std::uint64_t to, std::size_t bytes,
            std::size_t input, const FullKey& b) {
    for (;; bytes *= 2) {
      // The byte before `from` shows whether a line starts there.
      const std::uint64_t at = from == 0 ? 0 : from - 1;
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(bytes, to - at));
      if (buf_.size() < n) buf_.resize(n);
      if (!read_fully(fd, buf_.data(), n, at)) return false;
      const std::string_view v(buf_.data(), n);
      const bool to_end = at + n == to;
      std::size_t pos = 0;
      if (from != 0) {
        pos = v.find('\n');
        if (pos == std::string_view::npos && !to_end) continue;
        pos = pos == std::string_view::npos ? n : pos + 1;
      }
      first = next = at + pos;
      below = found = false;
      while (pos < n) {
        std::size_t nl = v.find('\n', pos);
        if (nl == std::string_view::npos) {
          if (!to_end) break;  // the line goes on past the window
          nl = n;
        }
        const std::string_view line = v.substr(pos, nl - pos);
        pos = std::min(nl + 1, n);
        if (!line.empty() &&
            read_timeline_key(line, true, &decoded_, &key)) {
          if (!leaves_before(key, input, b)) {
            found = true;
            start = at + (line.data() - v.data());
            end = at + pos;
            return true;
          }
          below = true;
        }
        next = at + pos;
      }
      if (next > first || to_end) return true;
    }
  }

 private:
  std::string buf_, decoded_;
};

// Bytes a search reads at a time; a range this long is searched in one.
constexpr std::size_t kWindowBytes = 1024;

// The first keyed line of input `input` (the file `fd`) in [lo, hi), line
// starts, that does not leave before `b`, halving the range: in a sorted
// file every keyed line before it leaves before `b`, and a file out of
// order gets some line in [lo, hi). Left as it is when there is none, so
// `line` holds on entry what is at hi. False on a read error.
bool first_not_before(WindowProbe& probe, int fd, std::size_t input,
                      const FullKey& b, std::uint64_t lo, std::uint64_t hi,
                      Sample* line) {
  const auto keep = [&] {
    *line = {{probe.key.t, std::string(probe.key.device), probe.key.seq,
              input},
             probe.start,
             probe.end};
  };
  while (hi - lo > kWindowBytes) {
    if (!probe.read(fd, lo + (hi - lo) / 2, hi, kWindowBytes, input, b)) {
      return false;
    }
    if (!probe.found) {
      lo = probe.next;
      continue;
    }
    keep();
    if (probe.below) return true;
    hi = probe.first;
  }
  if (lo < hi) {
    const auto bytes = static_cast<std::size_t>(hi - lo + 1);
    if (!probe.read(fd, lo, hi, bytes, input, b)) return false;
    if (probe.found) keep();
  }
  return true;
}

// Where each partition after the first starts in input `input` (the file
// `fd` of `size` bytes, sampled in `samples`): partition j + 1 starts at
// the first keyed line not before starts[j], written to *out[j * stride].
// Partitions are taken in order, and while the line the last one started
// at is not before the next start, that one starts there too (in a sorted
// file): a run's lines fill a short stretch of time, so most starts need
// no read. Each search begins where the last one ended, so the starts of
// a file out of order never move backwards either. False on a read error.
bool find_starts(int fd, std::uint64_t size, std::size_t input,
                 const std::vector<Sample>& samples,
                 const std::vector<const FullKey*>& starts, std::uint64_t* out,
                 std::size_t stride) {
  WindowProbe probe;
  // The first keyed line at or after the last start; none when it starts
  // at `size`.
  Sample at;
  std::uint64_t lo = 0, last = 0;
  std::size_t i = 0;  // the first sample not before the last start
  for (std::size_t j = 0; j < starts.size(); ++j) {
    const FullKey& b = *starts[j];
    if (j == 0 || (at.start < size && key_less(at.key, b))) {
      while (i < samples.size() && key_less(samples[i].key, b)) ++i;
      if (j > 0) lo = at.end;
      if (i > 0) lo = std::max(lo, samples[i - 1].end);
      const std::uint64_t hi = i < samples.size() ? samples[i].start : size;
      at = i < samples.size() ? samples[i] : Sample{{}, size, size};
      if (!first_not_before(probe, fd, input, b, std::min(lo, hi), hi,
                            &at)) {
        return false;
      }
    }
    last = std::max(last, at.start);
    out[j * stride] = last;
  }
  return true;
}

// The input files, open for pread; closed on destruction.
class InputFiles {
 public:
  InputFiles() = default;
  InputFiles(const InputFiles&) = delete;
  InputFiles& operator=(const InputFiles&) = delete;
  ~InputFiles() {
    for (const int f : fd) ::close(f);
  }
  // False when `path` cannot be opened or is not a regular file.
  bool add(const std::string& path) {
    const int f = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (f < 0) return false;
    fd.push_back(f);
    struct stat st {};
    if (::fstat(f, &st) != 0 || !S_ISREG(st.st_mode)) return false;
    size.push_back(static_cast<std::uint64_t>(st.st_size));
    return true;
  }

  std::vector<int> fd;
  std::vector<std::uint64_t> size;
};

// Runs body(i) for each i in [0, threads), on that many threads, the
// caller's among them; false when a body threw (it cannot leave a thread).
template <typename Body>
bool on_threads(std::size_t threads, const Body& body) {
  std::atomic<bool> threw{false};
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      threw = true;
    }
  };
  {
    std::vector<std::jthread> pool;  // joined on the way out
    for (std::size_t i = 1; i < threads; ++i) pool.emplace_back(run, i);
    if (threads > 0) run(0);
  }
  return !threw;
}

// Cuts the files into partitions of about partition_bytes of input:
// (*off)[j * n + s] is where partition j starts in file s, and the last row
// holds the file sizes. Samples a keyed line about every partition_bytes /
// 16 bytes of each file, starts a partition at a sampled key after about
// every partition_bytes of samples in key order, and finds those starts in
// every file. False on a read error.
bool cut_partitions(const InputFiles& files, std::size_t threads,
                    std::uint64_t partition_bytes,
                    std::vector<std::uint64_t>* off) {
  const std::size_t n = files.fd.size();
  const std::uint64_t total =
      std::accumulate(files.size.begin(), files.size.end(), std::uint64_t{0});
  off->assign(n, 0);
  if (total > partition_bytes) {  // else one partition: nothing to find
    threads = std::min(threads, n);
    // Each sample stands for the bytes up to the next in its file.
    const std::uint64_t spacing =
        std::max<std::uint64_t>(partition_bytes / 16, 1);
    std::vector<std::vector<Sample>> samples(n);
    std::atomic<bool> failed{false};
    // No keyed line leaves before this key: a read finds the first one.
    const FullKey any{-std::numeric_limits<double>::infinity(), {}, 0, 0};
    bool ran = on_threads(threads, [&](std::size_t first) {
      WindowProbe probe;
      for (std::size_t s = first; s < n && !failed; s += threads) {
        for (std::uint64_t at = 0; at < files.size[s];) {
          if (!probe.read(files.fd[s], at, files.size[s], kWindowBytes, s,
                          any)) {
            failed = true;
            break;
          }
          if (!probe.found) break;  // only keyless lines from `at` on
          const TimelineKey& k = probe.key;
          samples[s].push_back({{k.t, std::string(k.device), k.seq, s},
                                probe.start,
                                probe.end});
          at = std::max(at + spacing, probe.end);
        }
      }
    });
    if (!ran || failed) return false;

    std::vector<const Sample*> by_key;
    for (const std::vector<Sample>& mine : samples) {
      for (const Sample& sample : mine) by_key.push_back(&sample);
    }
    std::sort(by_key.begin(), by_key.end(),
              [](const Sample* a, const Sample* b) {
                return key_less(a->key, b->key);
              });
    std::vector<const FullKey*> starts;  // of partitions 1, 2, ...
    std::uint64_t acc = 0;
    for (const Sample* sample : by_key) {
      const std::vector<Sample>& mine = samples[sample->key.input];
      if (acc >= partition_bytes &&
          (starts.empty() || key_less(*starts.back(), sample->key))) {
        starts.push_back(&sample->key);
        acc = 0;
      }
      acc += (sample == &mine.back() ? files.size[sample->key.input]
                                     : (sample + 1)->start) -
             sample->start;
    }

    off->resize((starts.size() + 1) * n);
    ran = on_threads(threads, [&](std::size_t first) {
      for (std::size_t s = first; s < n && !failed; s += threads) {
        if (!find_starts(files.fd[s], files.size[s], s, samples[s], starts,
                         &(*off)[n + s], n)) {
          failed = true;
        }
      }
    });
    if (!ran || failed) return false;
  }
  off->insert(off->end(), files.size.begin(), files.size.end());
  return true;
}

}  // namespace

bool merge_sorted_timeline_files(std::span<const std::string> paths,
                                 std::ostream& out, std::size_t threads,
                                 std::size_t partition_bytes) {
  InputFiles files;
  for (const std::string& path : paths) {
    if (!files.add(path)) return false;
  }
  threads = std::max<std::size_t>(threads, 1);
  std::vector<std::uint64_t> off;
  if (!cut_partitions(files, threads,
                      std::max<std::size_t>(partition_bytes, 1), &off)) {
    return false;
  }
  const std::size_t n = paths.size();
  const std::size_t parts = n == 0 ? 0 : off.size() / n - 1;

  // Workers take the partitions in order; partition j is merged into
  // buffers[j % slots] once partition j - slots is written, and the caller
  // writes them in order, so at most threads + 1 partitions are held.
  const std::size_t workers = std::min(threads, parts);
  const std::size_t slots = workers + 1;
  std::vector<std::string> buffers(slots);
  std::vector<char> merged(slots, 0);  // buffers[k] holds a partition
  std::size_t claimed = 0, written = 0;
  bool stop = false, failed = false;
  std::mutex mu;
  std::condition_variable cv;
  const auto merge_partitions = [&] {
    std::vector<BlockReader> readers(n);
    std::vector<BlockReader*> open;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] {
        return stop || claimed == parts || claimed < written + slots;
      });
      if (stop || claimed == parts) return;
      const std::size_t j = claimed++, k = j % slots;
      // This thread's own while it merges: appending to a slot of
      // `buffers` would write to a cache line the other slots share.
      std::string buf = std::move(buffers[k]);
      lock.unlock();
      buf.clear();
      open.clear();
      std::uint64_t bytes = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const std::uint64_t from = off[j * n + s], to = off[(j + 1) * n + s];
        if (from == to) continue;
        // Readers are reused in the order of the files a partition reads,
        // so their blocks grow to the ranges of the few files it reads
        // most of, not to every file's.
        BlockReader& r = readers[open.size()];
        r.open(files.fd[s], from, to);
        open.push_back(&r);
        bytes += to - from + 1;  // a last line without '\n' gains one
      }
      if (buf.capacity() < bytes) {  // a quarter to spare, not double
        buf = std::string();
        buf.reserve(static_cast<std::size_t>(bytes + bytes / 4));
      }
      merge_readers(open, buf, nullptr);
      const bool ok =
          std::none_of(open.begin(), open.end(),
                       [](const BlockReader* r) { return r->failed(); });
      lock.lock();
      buffers[k] = std::move(buf);
      if (!ok) failed = stop = true;
      merged[k] = 1;
      cv.notify_all();
    }
  };
  // Stops the workers; also when a worker or the caller throws, so no one
  // waits for a partition that will not come.
  const auto halt = [&](bool fail) {
    const std::lock_guard<std::mutex> lock(mu);
    failed = failed || fail;
    stop = true;
    cv.notify_all();
  };
  const auto work = [&] {
    try {
      merge_partitions();
    } catch (...) {  // an allocation failed: so does the artifact
      halt(true);
    }
  };
  std::vector<std::jthread> pool;
  try {
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(work);
    std::unique_lock<std::mutex> lock(mu);
    while (written < parts && !stop) {
      const std::size_t k = written % slots;
      cv.wait(lock, [&] { return stop || merged[k]; });
      if (stop) break;
      lock.unlock();
      out.write(buffers[k].data(),
                static_cast<std::streamsize>(buffers[k].size()));
      lock.lock();
      merged[k] = 0;
      ++written;
      stop = !out;
      cv.notify_all();
    }
  } catch (...) {
    halt(true);
    throw;  // `pool` joins the workers on the way out
  }
  halt(false);
  pool.clear();  // joins them
  return !failed && static_cast<bool>(out);
}

std::size_t timeline_merge_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
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
