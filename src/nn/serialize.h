// Binary (de)serialization of tensor lists — model checkpoints.
//
// Both formats are common/bytes.h frames (magic | u32 version | u32 len |
// payload | u32 crc32(payload)) and fail with Expected errors (never
// asserts), so corrupt or other-versioned bytes are recoverable conditions:
//
//   * tensor blob: frame "LXNN", version 2, payload [u32 tensor count,
//     tensors];
//   * model container (snapshot subsystem): frame "LXNC", version 2, payload
//     [u32 model kind, u32 tensor count, tensors]. The kind tag names the
//     architecture the weights belong to, so a fleet snapshot cannot
//     silently load one model's tensors into another's layers.
//
// A tensor is u32 rank (1..3), u64 dims (each 1..2^24), then its f64 data.
// Version-1 bytes (whose CRC covered the header, and whose container nested
// a whole tensor blob) fail the version check with Error::kCorrupt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.h"
#include "nn/tensor.h"

namespace lingxi::nn {

/// Version of the tensor-blob frame written by serialize_tensors.
inline constexpr std::uint32_t kTensorBlobVersion = 2;
/// Version of the model-container frame written by serialize_model.
inline constexpr std::uint32_t kModelContainerVersion = 2;

/// Model kind tag of the predictor's stall-exit net. Callers may define
/// further tags >= 100.
inline constexpr std::uint32_t kModelKindStallExitNet = 3;

/// Serialize tensors to an in-memory byte buffer.
std::vector<unsigned char> serialize_tensors(const std::vector<const Tensor*>& tensors);

/// Parse a byte buffer produced by serialize_tensors.
Expected<std::vector<Tensor>> deserialize_tensors(const std::vector<unsigned char>& bytes);

/// Wrap a tensor list in a versioned model container tagged `model_kind`.
std::vector<unsigned char> serialize_model(std::uint32_t model_kind,
                                           const std::vector<const Tensor*>& tensors);
/// Unwrap a model container: the version and CRC must check out and the kind
/// tag must equal `expected_kind` (Error::kCorrupt otherwise).
Expected<std::vector<Tensor>> deserialize_model(std::uint32_t expected_kind,
                                                const std::vector<unsigned char>& bytes);

/// File convenience wrappers over serialize_tensors/deserialize_tensors. The
/// write is atomic and durable (common/bytes.h write_file).
Status save_tensors(const std::string& path, const std::vector<const Tensor*>& tensors);
Expected<std::vector<Tensor>> load_tensors(const std::string& path);

}  // namespace lingxi::nn
