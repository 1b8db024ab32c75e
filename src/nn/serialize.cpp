#include "nn/serialize.h"

#include <string_view>

#include "common/bytes.h"

namespace lingxi::nn {
namespace {

constexpr std::string_view kContainerMagic = "LXNC";

constexpr std::uint64_t kMaxDim = 1u << 24;
// Smallest tensor on the wire: rank 1, one dim, one element.
constexpr std::size_t kMinTensorWireSize = 4 + 8 + 8;

void put_tensors(std::vector<unsigned char>& out, const std::vector<Tensor>& tensors) {
  put_u32(out, static_cast<std::uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    put_u32(out, static_cast<std::uint32_t>(t.rank()));
    for (std::size_t d = 0; d < t.rank(); ++d) put_u64(out, t.dim(d));
    put_f64s(out, {t.data(), t.size()});
  }
}

/// Reads a tensor list that must fill the rest of `in`.
Expected<std::vector<Tensor>> get_tensors(ByteReader& in) {
  std::vector<Tensor> tensors(in.count(in.u32(), kMinTensorWireSize));
  if (!in.ok()) return Error::corrupt("tensor count exceeds payload");
  for (Tensor& t : tensors) {
    const std::uint32_t rank = in.u32();
    if (rank == 0 || rank > 3) return Error::corrupt("tensor rank out of range");
    std::vector<std::size_t> shape(rank);
    // Element count so far; each step keeps numel * 8 within what remains,
    // so the product can neither overflow nor outgrow the payload.
    std::uint64_t numel = 1;
    for (auto& d : shape) {
      const std::uint64_t dim = in.u64();
      if (dim == 0 || dim > kMaxDim) return Error::corrupt("tensor dim out of range");
      if (dim > in.remaining() / 8 / numel) {
        return Error::corrupt("tensor shape exceeds payload");
      }
      numel *= dim;
      d = static_cast<std::size_t>(dim);
    }
    t = Tensor(std::move(shape), in.f64s(numel));
  }
  if (!in.done()) return Error::corrupt("trailing bytes after tensors");
  return tensors;
}

}  // namespace

std::vector<unsigned char> serialize_model(std::uint32_t model_kind,
                                           const std::vector<Tensor>& tensors) {
  std::vector<unsigned char> payload;
  put_u32(payload, model_kind);
  put_tensors(payload, tensors);
  std::vector<unsigned char> out;
  append_frame(out, kContainerMagic, kModelContainerVersion, payload);
  return out;
}

Expected<std::vector<Tensor>> deserialize_model(std::uint32_t expected_kind,
                                                const std::vector<unsigned char>& bytes) {
  std::size_t pos = 0;
  auto payload = read_frame(bytes, pos, kContainerMagic, kModelContainerVersion);
  if (!payload) return payload.error();
  if (pos != bytes.size()) return Error::corrupt("LXNC: trailing bytes after frame");
  ByteReader in(*payload);
  if (in.u32() != expected_kind) return Error::corrupt("model container kind mismatch");
  return get_tensors(in);
}

}  // namespace lingxi::nn
