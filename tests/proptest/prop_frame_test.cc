// Property suite: CRC framing over a socket pair. Random payload
// sequences (0 B to 64 KiB) are written in random chunkings — byte at a
// time, several frames in one write, cuts inside the 8-byte header —
// and consecutive RecvFrame calls must return them byte-identical. A
// stream cut at a random offset must read as a clean EOF exactly when
// the cut is on a frame boundary and as kDataLoss anywhere else, and a
// length field above kMaxNetPayloadBytes must be kDataLoss before any
// payload allocation.
//
// The writer waits after each chunk until the reader has drained the
// kernel queue, so a cut inside a header really is seen by RecvFrame as
// a partial header, not coalesced with the next chunk.

#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "net/frame.h"
#include "net/socket.h"
#include "proptest/proptest.h"

// Allocation probe: records the largest operator-new request made by
// the thread that armed it, so a test can show RecvFrame never sized a
// buffer from a lying length field. Every non-aligned form is replaced
// so new and delete stay paired (malloc/free) under the sanitizers.
namespace {
thread_local bool g_probe_armed = false;
thread_local size_t g_probe_largest = 0;

void* ProbedAlloc(size_t n) {
  if (g_probe_armed) g_probe_largest = std::max(g_probe_largest, n);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(size_t n) {
  if (void* p = ProbedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr size_t kHeaderBytes = 8;

struct SocketPair {
  Socket a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

Deadline Soon() { return Deadline::AfterMillis(5000); }

std::string FrameBytes(const std::string& payload) {
  std::string out;
  bytes::PutU32(&out, static_cast<uint32_t>(payload.size()));
  bytes::PutU32(&out, Crc32(payload));
  return out + payload;
}

std::string RandomPayload(Random& rng, size_t max_bytes) {
  // Mostly request-sized payloads, some past the read buffer's size so
  // the direct-read path runs too.
  static constexpr size_t kClassCaps[] = {64, 1024, 20 * 1024, 64 * 1024};
  const size_t cap =
      std::min(max_bytes, kClassCaps[rng.Uniform(std::size(kClassCaps))]);
  std::string payload(rng.Uniform(cap + 1), '\0');
  for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
  return payload;
}

/// A byte stream of frames plus the offsets where it is written in
/// separate chunks.
struct StreamCase {
  std::vector<std::string> payloads;
  std::string bytes;
  std::vector<size_t> frame_starts;  // one per frame, then bytes.size()
  std::vector<size_t> cuts;          // chunk ends, ascending, last = end
  size_t end = 0;                    // bytes written before the close
};

void AddFrames(Random& rng, size_t max_payload, StreamCase* c) {
  const size_t frames = 1 + rng.Uniform(6);
  for (size_t i = 0; i < frames; ++i) {
    c->payloads.push_back(RandomPayload(rng, max_payload));
    c->frame_starts.push_back(c->bytes.size());
    c->bytes += FrameBytes(c->payloads.back());
  }
  c->frame_starts.push_back(c->bytes.size());
  c->end = c->bytes.size();
}

/// Chooses the chunking of bytes [0, c->end): one write, random cuts
/// that include one inside every header, or (when `bytewise` allows it)
/// one byte per write.
void ChooseCuts(Random& rng, bool bytewise, StreamCase* c) {
  switch (rng.Uniform(bytewise ? 3 : 2)) {
    case 0:
      break;
    case 1:
      for (size_t start : c->frame_starts) {
        c->cuts.push_back(start + 1 + rng.Uniform(kHeaderBytes - 1));
        c->cuts.push_back(start + kHeaderBytes);
      }
      for (int i = 0; i < 4; ++i) {
        c->cuts.push_back(1 + rng.Uniform(c->end + 1));
      }
      break;
    default:
      for (size_t at = 1; at < c->end; ++at) c->cuts.push_back(at);
      break;
  }
  c->cuts.push_back(c->end);
  std::sort(c->cuts.begin(), c->cuts.end());
  c->cuts.erase(std::unique(c->cuts.begin(), c->cuts.end()), c->cuts.end());
  c->cuts.erase(std::remove_if(c->cuts.begin(), c->cuts.end(),
                               [&](size_t at) { return at > c->end; }),
                c->cuts.end());
}

/// Byte-at-a-time chunking costs a reader handshake per byte, so only
/// short streams get it.
constexpr size_t kBytewiseMaxBytes = 4096;

size_t KernelQueued(int fd) {
  int queued = 0;
  if (::ioctl(fd, FIONREAD, &queued) != 0) return 0;
  return static_cast<size_t>(queued);
}

/// Writes c.bytes[0, c.end) chunk by chunk with plain blocking sends,
/// waiting after each chunk until the reader has taken it off the
/// kernel queue, then half-closes the stream.
void WriteChunks(int writer_fd, int reader_fd, const StreamCase& c) {
  size_t at = 0;
  bool wait_for_reader = true;
  for (size_t cut : c.cuts) {
    while (at < cut) {
      const ssize_t sent =
          ::send(writer_fd, c.bytes.data() + at, cut - at, MSG_NOSIGNAL);
      if (sent <= 0) return;  // the reader gave up and shut the pair
      at += static_cast<size_t>(sent);
    }
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(2);
    while (wait_for_reader && KernelQueued(reader_fd) > 0) {
      if (std::chrono::steady_clock::now() > give_up) {
        wait_for_reader = false;  // a failed reader stopped reading
      }
      std::this_thread::yield();
    }
  }
  ::shutdown(writer_fd, SHUT_WR);
}

/// Reads frames until the stream ends and checks each against the
/// payloads wholly before c.end; the read after them must be a clean
/// EOF when c.end is a frame boundary and kDataLoss otherwise.
std::string ReadAndCheck(Socket& reader, const StreamCase& c) {
  size_t complete = 0;
  while (complete + 1 < c.frame_starts.size() &&
         c.frame_starts[complete + 1] <= c.end) {
    ++complete;
  }
  for (size_t i = 0; i < complete; ++i) {
    g_probe_largest = 0;
    g_probe_armed = true;
    StatusOr<std::string> got = RecvFrame(reader, Soon());
    g_probe_armed = false;
    if (!got.ok()) {
      return "frame " + std::to_string(i) + " failed: " +
             got.status().ToString();
    }
    if (*got != c.payloads[i]) {
      return "frame " + std::to_string(i) + " differs (" +
             std::to_string(got->size()) + " vs " +
             std::to_string(c.payloads[i].size()) + " bytes)";
    }
    const size_t allowed =
        std::max(c.payloads[i].size() + 1, Socket::kReadBufferBytes);
    if (g_probe_largest > allowed) {
      return "frame " + std::to_string(i) + " allocated " +
             std::to_string(g_probe_largest) + " bytes";
    }
    if (reader.buffered() > Socket::kReadBufferBytes) {
      return "read buffer holds " + std::to_string(reader.buffered());
    }
    if (reader.buffered() > 0 &&
        !reader.WaitReadable(Deadline::AfterMillis(1)).ok()) {
      return "WaitReadable ignored " + std::to_string(reader.buffered()) +
             " buffered bytes";
    }
  }
  bool clean_eof = false;
  StatusOr<std::string> last = RecvFrame(reader, Soon(), &clean_eof);
  const bool on_boundary = c.frame_starts[complete] == c.end;
  if (last.ok()) return "read a frame past the end of the stream";
  if (on_boundary) {
    if (!clean_eof || last.status().code() != StatusCode::kUnavailable) {
      return "cut on a frame boundary read as " + last.status().ToString();
    }
  } else if (clean_eof || last.status().code() != StatusCode::kDataLoss) {
    return "cut " + std::to_string(c.end - c.frame_starts[complete]) +
           " bytes into a frame read as " + last.status().ToString();
  }
  return "";
}

std::string CheckStream(const StreamCase& c) {
  SocketPair pair;
  std::thread writer(WriteChunks, pair.a.fd(), pair.b.fd(), std::cref(c));
  std::string failure = ReadAndCheck(pair.b, c);
  if (!failure.empty()) ::shutdown(pair.b.fd(), SHUT_RDWR);
  writer.join();
  return failure;
}

std::string Describe(const StreamCase& c) {
  std::string out = std::to_string(c.payloads.size()) + " frames (";
  for (const std::string& p : c.payloads) {
    out += std::to_string(p.size()) + " ";
  }
  return out + "B), " + std::to_string(c.cuts.size()) + " chunks, " +
         std::to_string(c.end) + "/" + std::to_string(c.bytes.size()) +
         " bytes written";
}

StreamCase GenWholeStream(Random& rng) {
  StreamCase c;
  AddFrames(rng, rng.Uniform(4) == 0 ? 512 : 64 * 1024, &c);
  ChooseCuts(rng, c.end <= kBytewiseMaxBytes, &c);
  return c;
}

StreamCase GenCutStream(Random& rng) {
  StreamCase c;
  AddFrames(rng, rng.Uniform(2) == 0 ? 512 : 64 * 1024, &c);
  // Half the cuts on a frame boundary (the first frame's start is an
  // empty stream), half anywhere, which is mostly inside a frame.
  c.end = rng.Uniform(2) == 0
              ? c.frame_starts[rng.Uniform(c.frame_starts.size())]
              : rng.Uniform(c.bytes.size() + 1);
  ChooseCuts(rng, c.end <= kBytewiseMaxBytes, &c);
  return c;
}

TEST(PropFrame, ChunkedStreamsRoundTripByteIdentical) {
  Property<StreamCase> property("frame-chunked-round-trip", GenWholeStream,
                                CheckStream);
  property.WithPrinter(Describe);
  RunnerOptions options;
  options.num_cases = 60;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropFrame, CutStreamIsCleanEofOnlyOnAFrameBoundary) {
  Property<StreamCase> property("frame-cut-stream", GenCutStream,
                                CheckStream);
  property.WithPrinter(Describe);
  RunnerOptions options;
  options.num_cases = 80;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

/// Valid frames, then a header whose length exceeds kMaxNetPayloadBytes,
/// then a few bytes that must never be read as its payload.
struct LyingCase {
  std::vector<std::string> payloads;
  std::string bytes;
  uint32_t length = 0;
};

LyingCase GenLying(Random& rng) {
  LyingCase c;
  const size_t frames = rng.Uniform(4);
  for (size_t i = 0; i < frames; ++i) {
    c.payloads.push_back(RandomPayload(rng, 1024));
    c.bytes += FrameBytes(c.payloads.back());
  }
  c.length = static_cast<uint32_t>(
      kMaxNetPayloadBytes + 1 +
      rng.Uniform(uint64_t{0xFFFFFFFFu} - kMaxNetPayloadBytes));
  bytes::PutU32(&c.bytes, c.length);
  bytes::PutU32(&c.bytes, static_cast<uint32_t>(rng.NextUint64()));
  c.bytes += std::string(rng.Uniform(64), 'x');
  return c;
}

std::string CheckLying(const LyingCase& c) {
  SocketPair pair;
  // Everything fits in the socket buffer, and the writer stays open: a
  // reader that waited for the lying payload would time out instead.
  if (!pair.a.SendAll(c.bytes.data(), c.bytes.size(), Soon()).ok()) {
    return "setup write failed";
  }
  for (size_t i = 0; i < c.payloads.size(); ++i) {
    StatusOr<std::string> got = RecvFrame(pair.b, Soon());
    if (!got.ok() || *got != c.payloads[i]) {
      return "valid frame " + std::to_string(i) + " did not round-trip";
    }
  }
  g_probe_largest = 0;
  g_probe_armed = true;
  StatusOr<std::string> got = RecvFrame(pair.b, Deadline::AfterMillis(500));
  g_probe_armed = false;
  if (got.ok() || got.status().code() != StatusCode::kDataLoss) {
    return "length " + std::to_string(c.length) + " read as " +
           (got.ok() ? std::string("OK") : got.status().ToString());
  }
  if (g_probe_largest > Socket::kReadBufferBytes) {
    return "length " + std::to_string(c.length) + " allocated " +
           std::to_string(g_probe_largest) + " bytes";
  }
  return "";
}

TEST(PropFrame, LyingLengthIsDataLossWithoutAllocating) {
  Property<LyingCase> property("frame-lying-length", GenLying, CheckLying);
  property.WithPrinter([](const LyingCase& c) {
    return std::to_string(c.payloads.size()) + " frames, then length " +
           std::to_string(c.length);
  });
  const proptest::RunResult result = property.Run();
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
