#include "net/frame.h"

#include <algorithm>
#include <string_view>

#include <sys/socket.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/fault_injection.h"

namespace hpm {

namespace {
constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc
}  // namespace

Status SendFrame(Socket& socket, const std::string& payload,
                 Deadline deadline) {
  std::string header;
  bytes::PutU32(&header, static_cast<uint32_t>(payload.size()));
  bytes::PutU32(&header, Crc32(payload));

  const Status fault = HPM_FAULT_HIT("net/send");
  if (!fault.ok()) {
    // Model the torn frame the site stands for: half the frame reaches
    // the peer, then the connection dies mid-stream. The peer must see
    // kDataLoss, never a short frame silently accepted.
    const size_t half = (kFrameHeaderBytes + payload.size()) / 2;
    const size_t from_header = std::min(half, kFrameHeaderBytes);
    (void)socket.SendAll(
        std::string_view(header).substr(0, from_header),
        std::string_view(payload).substr(0, half - from_header), deadline);
    ::shutdown(socket.fd(), SHUT_RDWR);
    socket.Close();
    return fault;
  }
  return socket.SendAll(header, payload, deadline);
}

StatusOr<std::string> RecvFrame(Socket& socket, Deadline deadline,
                                bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  HPM_RETURN_IF_ERROR(HPM_FAULT_HIT("net/recv"));
  char header[kFrameHeaderBytes];
  HPM_RETURN_IF_ERROR(
      socket.RecvAll(header, sizeof(header), deadline, clean_eof));
  bytes::Cursor in(header, sizeof(header));
  uint32_t length = 0;
  uint32_t stored_crc = 0;
  in.U32(&length);
  in.U32(&stored_crc);
  if (length > kMaxNetPayloadBytes) {
    return Status::DataLoss("implausible frame length " +
                            std::to_string(length));
  }
  std::string payload(length, '\0');
  if (length > 0) {
    // The header was consumed, so even a close before the first payload
    // byte is a torn frame, not the clean end of the stream.
    bool closed_after_header = false;
    const Status got = socket.RecvAll(payload.data(), length, deadline,
                                      &closed_after_header);
    if (closed_after_header) {
      return Status::DataLoss("connection closed after a frame header");
    }
    HPM_RETURN_IF_ERROR(got);
  }
  if (Crc32(payload) != stored_crc) {
    return Status::DataLoss("frame checksum mismatch");
  }
  return payload;
}

}  // namespace hpm
