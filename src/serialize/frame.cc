#include "serialize/frame.h"

#include <cstring>

namespace pbse::serialize {

namespace {

constexpr char kMagic[4] = {'P', 'B', 'S', 'F'};
// magic + version + kind + payload size
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;
constexpr std::size_t kFooterBytes = 8;

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameKind kind,
                                       const std::vector<std::uint8_t>& payload) {
  Encoder enc;
  enc.u8(kMagic[0]);
  enc.u8(kMagic[1]);
  enc.u8(kMagic[2]);
  enc.u8(kMagic[3]);
  enc.u32(kPbsfVersion);
  enc.u32(static_cast<std::uint32_t>(kind));
  enc.u64(payload.size());
  std::vector<std::uint8_t> out = enc.data();
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint64_t checksum = fnv1a(out.data(), out.size());
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((checksum >> (8 * i)) & 0xff));
  return out;
}

FrameKind decode_frame(const std::vector<std::uint8_t>& framed,
                       std::vector<std::uint8_t>& payload) {
  if (framed.size() < kHeaderBytes + kFooterBytes)
    throw SnapshotError("pbsf: frame truncated (" +
                        std::to_string(framed.size()) + " bytes)");
  if (std::memcmp(framed.data(), kMagic, 4) != 0)
    throw SnapshotError("pbsf: bad magic");
  Decoder dec(framed.data() + 4, framed.size() - 4 - kFooterBytes);
  const std::uint32_t version = dec.u32();
  if (version != kPbsfVersion)
    throw SnapshotError("pbsf: version " + std::to_string(version) +
                        " (expected " + std::to_string(kPbsfVersion) + ")");
  const std::uint32_t kind = dec.u32();
  const std::uint64_t size = dec.u64();
  if (size != framed.size() - kHeaderBytes - kFooterBytes)
    throw SnapshotError("pbsf: payload size " + std::to_string(size) +
                        " does not match frame of " +
                        std::to_string(framed.size()) + " bytes");
  const std::uint64_t want = fnv1a(framed.data(), framed.size() - kFooterBytes);
  std::uint64_t got = 0;
  for (int i = 0; i < 8; ++i)
    got |= std::uint64_t{framed[framed.size() - kFooterBytes + i]} << (8 * i);
  if (want != got)
    throw SnapshotError("pbsf: checksum mismatch (frame corrupted)");
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kJobAssign:
    case FrameKind::kJobResult:
    case FrameKind::kHeartbeat:
    case FrameKind::kJobRecord:
      break;
    default:
      throw SnapshotError("pbsf: unknown frame kind " + std::to_string(kind));
  }
  payload.assign(framed.begin() + kHeaderBytes,
                 framed.end() - kFooterBytes);
  return static_cast<FrameKind>(kind);
}

}  // namespace pbse::serialize
