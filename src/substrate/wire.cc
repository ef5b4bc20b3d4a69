#include "substrate/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Shared zero block stitched into outbound iovecs for page payloads.
constexpr std::size_t kZeroChunk = 64 * 1024;
const std::uint8_t kZeroes[kZeroChunk] = {};

/// Bytes of a Hello frame, length prefix included.
constexpr std::size_t kHelloFrameBytes = 4 + 4 + 4 + 1 + 1 + 4 + 4 + 8 + 4 + 4;
/// Bytes of a Message frame's fixed part: length prefix, header, and the
/// ten list counts.
constexpr std::size_t kMessageFixedBytes =
    4 + 1 + 4 + 4 + 8 + 8 + 8 + 4 + 1 + 1 + 10 * 4;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Stores `v` little-endian at `p`; returns the byte after it.
template <typename T>
std::uint8_t* Put(std::uint8_t* p, T v) {
  if constexpr (kLittleEndian) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    const auto raw = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(raw >> (8 * i));
    }
  }
  return p + sizeof(T);
}

/// Loads a little-endian `T` from `p`.
template <typename T>
T Get(const std::uint8_t* p) {
  T v;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    std::make_unsigned_t<T> raw = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      raw |= static_cast<std::make_unsigned_t<T>>(p[i]) << (8 * i);
    }
    v = static_cast<T>(raw);
  }
  return v;
}

/// A u32 count followed by the fixed-width elements of `list`.
template <typename List>
std::uint8_t* PutList(std::uint8_t* p, const List& list) {
  using T = std::remove_cvref_t<decltype(*list.data())>;
  p = Put(p, static_cast<std::uint32_t>(list.size()));
  if constexpr (kLittleEndian) {
    if (!list.empty()) {
      std::memcpy(p, list.data(), list.size() * sizeof(T));
    }
    return p + list.size() * sizeof(T);
  } else {
    for (T v : list) {
      p = Put(p, v);
    }
    return p;
  }
}

/// Bounded little-endian reader over a frame body.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  template <typename T>
  bool Read(T* v) {
    if (pos_ + sizeof(T) > len_) {
      return false;
    }
    *v = Get<T>(data_ + pos_);
    pos_ += sizeof(T);
    return true;
  }

  /// A u32 count, then that many fixed-width elements: one resize, one
  /// fill.
  template <typename List>
  bool ReadList(List* list) {
    using T = std::remove_cvref_t<decltype(*list->data())>;
    std::uint32_t count = 0;
    if (!Read(&count) || pos_ + std::size_t{count} * sizeof(T) > len_) {
      return false;
    }
    list->resize(count);
    if constexpr (kLittleEndian) {
      if (count > 0) {
        std::memcpy(list->data(), data_ + pos_, std::size_t{count} * sizeof(T));
      }
    } else {
      for (std::uint32_t i = 0; i < count; ++i) {
        (*list)[i] = Get<T>(data_ + pos_ + std::size_t{i} * sizeof(T));
      }
    }
    pos_ += std::size_t{count} * sizeof(T);
    return true;
  }

  bool Skip(std::size_t n) {
    if (pos_ + n > len_) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Grows `out` by `n` bytes and returns a pointer to the new tail.
std::uint8_t* Extend(std::vector<std::uint8_t>* out, std::size_t n) {
  const std::size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

/// Appends the length prefix and every control field of `msg` — header
/// plus lists, everything but the page-image payload — sizing the frame
/// once. The prefix covers the control bytes plus `payload` bytes of page
/// image that follow separately.
void EncodeMessageControl(const net::Message& msg, std::size_t payload,
                          std::vector<std::uint8_t>* out) {
  const std::size_t control =
      kMessageFixedBytes +
      sizeof(db::PageId) *
          (msg.pages.size() + msg.data_pages.size() +
           msg.fetch_pages.size() + msg.read_set.size() +
           msg.updated_set.size() + msg.released_pages.size() +
           msg.evicted_pages.size()) +
      sizeof(std::uint64_t) * (msg.versions.size() +
                               msg.data_versions.size() +
                               msg.read_versions.size());
  std::uint8_t* p = Extend(out, control);
  p = Put(p, static_cast<std::uint32_t>(control - 4 + payload));
  p = Put(p, static_cast<std::uint8_t>(msg.type));
  p = Put(p, static_cast<std::int32_t>(msg.src));
  p = Put(p, static_cast<std::int32_t>(msg.dst));
  p = Put(p, msg.xact);
  p = Put(p, msg.request_id);
  p = Put(p, msg.seq);
  p = Put(p, msg.incarnation);
  p = Put(p, static_cast<std::uint8_t>(msg.mode));
  p = Put(p, static_cast<std::uint8_t>((msg.aborted ? 1 : 0) |
                                       (msg.invalidate ? 2 : 0)));
  p = PutList(p, msg.pages);
  p = PutList(p, msg.versions);
  p = PutList(p, msg.data_pages);
  p = PutList(p, msg.data_versions);
  p = PutList(p, msg.fetch_pages);
  p = PutList(p, msg.read_set);
  p = PutList(p, msg.read_versions);
  p = PutList(p, msg.updated_set);
  p = PutList(p, msg.released_pages);
  p = PutList(p, msg.evicted_pages);
  CCSIM_DCHECK(p == out->data() + out->size());
}

}  // namespace

void EncodeHello(const Hello& hello, std::vector<std::uint8_t>* out) {
  std::uint8_t* p = Extend(out, kHelloFrameBytes);
  p = Put(p, static_cast<std::uint32_t>(kHelloFrameBytes - 4));
  p = Put(p, kWireMagic);
  p = Put(p, hello.version);
  p = Put(p, hello.algorithm);
  p = Put(p, hello.caching);
  p = Put(p, hello.client_lo);
  p = Put(p, hello.client_hi);
  p = Put(p, hello.total_pages);
  p = Put(p, hello.num_clients);
  Put(p, hello.page_payload_bytes);
}

bool DecodeHello(const std::uint8_t* body, std::size_t len, Hello* out,
                 std::string* error) {
  Reader r(body, len);
  std::uint32_t magic = 0;
  if (!r.Read(&magic) || magic != kWireMagic) {
    *error = "bad magic (not a ccsim wire peer)";
    return false;
  }
  if (!r.Read(&out->version) || out->version != kWireVersion) {
    *error = "wire version mismatch";
    return false;
  }
  if (!r.Read(&out->algorithm) || !r.Read(&out->caching) ||
      !r.Read(&out->client_lo) || !r.Read(&out->client_hi) ||
      !r.Read(&out->total_pages) || !r.Read(&out->num_clients) ||
      !r.Read(&out->page_payload_bytes) || !r.AtEnd()) {
    *error = "truncated hello";
    return false;
  }
  return true;
}

void EncodeMessage(const net::Message& msg, std::uint32_t page_payload_bytes,
                   std::vector<std::uint8_t>* out) {
  // Page images: the model tracks versions rather than bytes, so the image
  // payload is zero-filled, but it is still shipped at full page size.
  const std::size_t payload =
      std::size_t{page_payload_bytes} * msg.data_pages.size();
  EncodeMessageControl(msg, payload, out);
  out->resize(out->size() + payload);
}

bool DecodeMessage(const std::uint8_t* body, std::size_t len,
                   std::uint32_t page_payload_bytes, net::Message* out,
                   std::string* error) {
  Reader r(body, len);
  std::uint8_t type = 0, mode = 0, flags = 0;
  std::int32_t src = 0, dst = 0;
  if (!r.Read(&type) || !r.Read(&src) || !r.Read(&dst) ||
      !r.Read(&out->xact) || !r.Read(&out->request_id) ||
      !r.Read(&out->seq) || !r.Read(&out->incarnation) || !r.Read(&mode) ||
      !r.Read(&flags)) {
    *error = "truncated message header";
    return false;
  }
  out->type = static_cast<net::MsgType>(type);
  out->src = src;
  out->dst = dst;
  out->mode = static_cast<lock::LockMode>(mode);
  out->aborted = (flags & 1) != 0;
  out->invalidate = (flags & 2) != 0;
  if (!r.ReadList(&out->pages) || !r.ReadList(&out->versions) ||
      !r.ReadList(&out->data_pages) || !r.ReadList(&out->data_versions) ||
      !r.ReadList(&out->fetch_pages) || !r.ReadList(&out->read_set) ||
      !r.ReadList(&out->read_versions) || !r.ReadList(&out->updated_set) ||
      !r.ReadList(&out->released_pages) || !r.ReadList(&out->evicted_pages)) {
    *error = "truncated message lists";
    return false;
  }
  if (!r.Skip(std::size_t{page_payload_bytes} * out->data_pages.size()) ||
      !r.AtEnd()) {
    *error = "message length does not match its page payload";
    return false;
  }
  return true;
}

// --- FrameBuffer ----------------------------------------------------------

void FrameBuffer::AppendMessage(const net::Message& msg,
                                std::uint32_t page_payload_bytes) {
  const std::size_t zero_len =
      std::size_t{page_payload_bytes} * msg.data_pages.size();
  EncodeMessageControl(msg, zero_len, &bytes_);
  segments_.push_back(Segment{bytes_.size(), zero_len});
  ++frames_queued_;
}

void FrameBuffer::AppendHello(const Hello& hello) {
  EncodeHello(hello, &bytes_);
  segments_.push_back(Segment{bytes_.size(), 0});
  ++frames_queued_;
}

std::size_t FrameBuffer::pending_bytes() const {
  if (!has_pending()) {
    return 0;
  }
  std::size_t total = bytes_.size() - data_cursor_ +
                      segments_[seg_].zero_len - zero_done_;
  for (std::size_t s = seg_ + 1; s < segments_.size(); ++s) {
    total += segments_[s].zero_len;
  }
  return total;
}

void FrameBuffer::Clear() {
  bytes_.clear();
  segments_.clear();
  seg_ = 0;
  data_cursor_ = 0;
  zero_done_ = 0;
  frames_queued_ = 0;
}

void FrameBuffer::Advance(std::size_t n) {
  while (n > 0) {
    const Segment& seg = segments_[seg_];
    const std::size_t data_rem = seg.data_end - data_cursor_;
    if (data_rem > 0) {
      const std::size_t take = n < data_rem ? n : data_rem;
      data_cursor_ += take;
      n -= take;
      continue;
    }
    const std::size_t zero_rem = seg.zero_len - zero_done_;
    const std::size_t take = n < zero_rem ? n : zero_rem;
    zero_done_ += take;
    n -= take;
    if (zero_done_ == seg.zero_len) {
      ++seg_;
      zero_done_ = 0;
    }
  }
  // A segment fully drained by its data part alone still needs retiring.
  while (seg_ < segments_.size() &&
         data_cursor_ == segments_[seg_].data_end &&
         zero_done_ == segments_[seg_].zero_len) {
    ++seg_;
    zero_done_ = 0;
  }
  if (seg_ == segments_.size()) {
    Clear();
  }
}

FrameBuffer::FlushResult FrameBuffer::Flush(int fd) {
  constexpr std::size_t kMaxIov = 64;
  while (has_pending()) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t data_from = data_cursor_;
    std::size_t zero_from = zero_done_;
    for (std::size_t s = seg_; s < segments_.size() && niov < kMaxIov; ++s) {
      const Segment& seg = segments_[s];
      if (data_from < seg.data_end) {
        std::uint8_t* base = bytes_.data() + data_from;
        const std::size_t len = seg.data_end - data_from;
        // Adjacent control spans coalesce into one iovec.
        if (niov > 0 &&
            static_cast<std::uint8_t*>(iov[niov - 1].iov_base) +
                    iov[niov - 1].iov_len ==
                base) {
          iov[niov - 1].iov_len += len;
        } else {
          iov[niov].iov_base = base;
          iov[niov].iov_len = len;
          ++niov;
        }
      }
      for (std::size_t z = zero_from; z < seg.zero_len && niov < kMaxIov;
           z += kZeroChunk) {
        const std::size_t len =
            seg.zero_len - z < kZeroChunk ? seg.zero_len - z : kZeroChunk;
        iov[niov].iov_base = const_cast<std::uint8_t*>(kZeroes);
        iov[niov].iov_len = len;
        ++niov;
      }
      if (zero_from < seg.zero_len && niov == kMaxIov) {
        break;  // zero run truncated by the iovec budget; resume next pass
      }
      data_from = seg.data_end;
      zero_from = 0;
    }
    msghdr hdr{};
    hdr.msg_iov = iov;
    hdr.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(fd, &hdr, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return FlushResult::kAgain;
      }
      Clear();
      return FlushResult::kError;
    }
    Advance(static_cast<std::size_t>(n));
  }
  return FlushResult::kDone;
}

// --- FrameSplitter --------------------------------------------------------

std::uint8_t* FrameSplitter::WritableData(std::size_t min_bytes) {
  if (buf_.size() - end_ < min_bytes) {
    if (begin_ > 0) {
      // Slide the partial frame (if any) to the front.
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < min_bytes) {
      std::size_t want = buf_.size() * 2;
      if (want < end_ + min_bytes) {
        want = end_ + min_bytes;
      }
      buf_.resize(want);
    }
  }
  return buf_.data() + end_;
}

FrameSplitter::Next FrameSplitter::NextFrame(const std::uint8_t** body,
                                             std::uint32_t* len) {
  const std::size_t avail = end_ - begin_;
  if (avail < 4) {
    return Next::kNeedMore;
  }
  const std::uint8_t* p = buf_.data() + begin_;
  const std::uint32_t frame_len = static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24;
  if (frame_len > kMaxFrameBytes) {
    return Next::kBad;
  }
  if (avail < 4 + std::size_t{frame_len}) {
    return Next::kNeedMore;
  }
  *body = p + 4;
  *len = frame_len;
  begin_ += 4 + std::size_t{frame_len};
  if (begin_ == end_) {
    begin_ = 0;
    end_ = 0;
  }
  return Next::kFrame;
}

}  // namespace ccsim::substrate
