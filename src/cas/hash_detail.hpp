// ConGrid -- SHA-256 compression functions behind cas::Sha256.
//
// Internal to cg_cas: Sha256 picks one of these once per process and uses
// it for every block. Both are exposed so the tests can hold the hardware
// path to the scalar one on arbitrary states and blocks. Not a switch:
// nothing outside cas/hash.cpp chooses between them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cg::cas::detail {

using State = std::array<std::uint32_t, 8>;

/// Fold `n_blocks` consecutive 64-byte blocks into `state` (FIPS 180-4
/// section 6.2.2). `blocks` needs no alignment.
using CompressFn = void (*)(State& state, const std::uint8_t* blocks,
                            std::size_t n_blocks);

/// Portable reference implementation; the oracle for every other path.
void compress_scalar(State& state, const std::uint8_t* blocks,
                     std::size_t n_blocks);

#if defined(__x86_64__) || defined(__i386__)
/// The CPU has the SHA extensions plus SSE4.1 and SSSE3 (cpuid leaf 7
/// EBX bit 29; leaf 1 ECX bits 19 and 9).
bool sha_ni_supported();

/// SHA-NI path; call only when sha_ni_supported().
void compress_sha_ni(State& state, const std::uint8_t* blocks,
                     std::size_t n_blocks);
#endif

/// The path Sha256 uses on this CPU, chosen on first call.
CompressFn selected_compress();

}  // namespace cg::cas::detail
