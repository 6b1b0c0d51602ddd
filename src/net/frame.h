// Length-prefixed, CRC-framed messages over a Socket.
//
// Frame layout (identical shape to the WAL frame in io/wal.cc):
//   u32 payload_length | u32 crc32(payload) | payload bytes
//
// A frame whose CRC fails, whose length field is implausible, or whose
// peer disconnects mid-frame decodes to kDataLoss — the receiver drops
// the connection rather than resynchronise on a corrupt stream. A clean
// close exactly on a frame boundary is kUnavailable with
// `*clean_eof = true`.
//
// Fault sites (HPM_ENABLE_FAULTS builds):
//   net/send   fires after half the frame is written, then the
//              connection is shut down — the torn-frame / mid-stream
//              disconnect model
//   net/recv   fires before the read — the unreachable-peer model

#ifndef HPM_NET_FRAME_H_
#define HPM_NET_FRAME_H_

#include <cstddef>
#include <string>

#include "common/deadline.h"
#include "common/status.h"
#include "net/socket.h"

namespace hpm {

/// Upper bound on a frame payload; larger length fields are treated as
/// stream corruption. Snapshot files ship in chunks well below this.
constexpr size_t kMaxNetPayloadBytes = 4 * 1024 * 1024;

/// Sends one framed payload: header and payload in one gather write,
/// the payload not copied.
Status SendFrame(Socket& socket, const std::string& payload,
                 Deadline deadline);

/// Receives one framed payload. `clean_eof` (optional) reports a clean
/// peer close on a frame boundary — the normal end of a connection. The
/// length field is checked against kMaxNetPayloadBytes before the
/// payload is allocated.
StatusOr<std::string> RecvFrame(Socket& socket, Deadline deadline,
                                bool* clean_eof = nullptr);

}  // namespace hpm

#endif  // HPM_NET_FRAME_H_
