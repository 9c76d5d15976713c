#include "smr/codec.hpp"

#include <cstring>

namespace psmr::smr {

namespace {

constexpr std::uint32_t kMagic = 0x50534d42;  // "PSMB"
/// Format version. v2 added the retransmission attempt counter (request
/// reliability layer); decoders reject other versions — every process in a
/// deployment runs the same build, so no cross-version tolerance is needed.
constexpr std::uint8_t kVersion = 2;
constexpr std::uint32_t kMaxCommands = 1u << 24;

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof(T));
  std::memcpy(out.data() + n, &v, sizeof(T));
}

template <typename T>
bool get(std::span<const std::uint8_t>& in, T& v) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&v, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_batch(const Batch& batch) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + batch.size() * 37);
  put(out, kMagic);
  put(out, kVersion);
  put(out, batch.sequence());
  put(out, batch.proxy_id());
  put(out, batch.attempt());
  put(out, static_cast<std::uint8_t>(batch.has_bitmap() ? 1 : 0));
  put(out, static_cast<std::uint32_t>(batch.size()));
  for (const Command& c : batch.commands()) {
    put(out, static_cast<std::uint8_t>(c.type));
    put(out, c.key);
    put(out, c.value);
    put(out, c.client_id);
    put(out, c.sequence);
    put(out, c.cost_ns);
  }
  return out;
}

std::optional<Batch> decode_batch(std::span<const std::uint8_t> bytes,
                                  const BitmapConfig& cfg) {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  if (!get(bytes, magic) || magic != kMagic) return std::nullopt;
  if (!get(bytes, version) || version != kVersion) return std::nullopt;
  std::uint64_t sequence = 0, proxy_id = 0;
  std::uint32_t attempt = 0;
  std::uint8_t has_bitmap = 0;
  std::uint32_t count = 0;
  if (!get(bytes, sequence) || !get(bytes, proxy_id) || !get(bytes, attempt) ||
      !get(bytes, has_bitmap) || !get(bytes, count)) {
    return std::nullopt;
  }
  if (attempt == 0) return std::nullopt;
  if (count > kMaxCommands) return std::nullopt;
  std::vector<Command> commands;
  commands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Command c;
    std::uint8_t type = 0;
    if (!get(bytes, type) || type > static_cast<std::uint8_t>(OpType::kRemove)) {
      return std::nullopt;
    }
    c.type = static_cast<OpType>(type);
    if (!get(bytes, c.key) || !get(bytes, c.value) || !get(bytes, c.client_id) ||
        !get(bytes, c.sequence) || !get(bytes, c.cost_ns)) {
      return std::nullopt;
    }
    commands.push_back(c);
  }
  if (!bytes.empty()) return std::nullopt;  // trailing garbage
  Batch b(std::move(commands));
  b.set_sequence(sequence);
  b.set_proxy_id(proxy_id);
  b.set_attempt(attempt);
  if (has_bitmap) b.build_bitmap(cfg);
  return b;
}

}  // namespace psmr::smr
