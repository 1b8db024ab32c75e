// Binary (de)serialization of tensor lists — model checkpoints.
//
// The one net format is the model container, a common/bytes.h frame
// (magic | u32 version | u32 len | payload | u32 crc32(payload)): magic
// "LXNC", version 2, payload [u32 model kind, u32 tensor count, tensors].
// The kind tag names the architecture the weights belong to, so a fleet
// snapshot cannot silently load one model's tensors into another's layers.
// Decoding fails with Expected errors (never asserts), so corrupt or
// other-versioned bytes are recoverable conditions. Files go through
// common/bytes.h write_file/read_file.
//
// A tensor is u32 rank (1..3), u64 dims (each 1..2^24), then its f64 data.
// Version-1 bytes (whose CRC covered the header, and whose container nested
// a whole tensor blob) fail the version check with Error::kCorrupt.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expected.h"
#include "nn/tensor.h"

namespace lingxi::nn {

/// Version of the model-container frame written by serialize_model.
inline constexpr std::uint32_t kModelContainerVersion = 2;

/// Model kind tag of the predictor's stall-exit net. Callers may define
/// further tags >= 100.
inline constexpr std::uint32_t kModelKindStallExitNet = 3;

/// Wrap a tensor list in a versioned model container tagged `model_kind`.
std::vector<unsigned char> serialize_model(std::uint32_t model_kind,
                                           const std::vector<Tensor>& tensors);
/// Unwrap a model container: the version and CRC must check out and the kind
/// tag must equal `expected_kind` (Error::kCorrupt otherwise).
Expected<std::vector<Tensor>> deserialize_model(std::uint32_t expected_kind,
                                                const std::vector<unsigned char>& bytes);

}  // namespace lingxi::nn
