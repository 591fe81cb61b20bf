// rdsim/flash/types.h
//
// Fundamental MLC flash value types: the four threshold-voltage states of a
// 2-bit cell and their Gray-coded (LSB, MSB) data mapping, exactly as in
// Fig. 1 of the paper: ER=11, P1=10, P2=00, P3=01.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace rdsim::flash {

/// The four MLC states, ordered by increasing threshold voltage.
enum class CellState : std::uint8_t { kEr = 0, kP1 = 1, kP2 = 2, kP3 = 3 };

inline constexpr std::array<CellState, 4> kAllStates = {
    CellState::kEr, CellState::kP1, CellState::kP2, CellState::kP3};

/// Least-significant bit stored by `state` (Gray code of Fig. 1).
constexpr int lsb_of(CellState state) {
  switch (state) {
    case CellState::kEr: return 1;  // 11
    case CellState::kP1: return 1;  // 10
    case CellState::kP2: return 0;  // 00
    case CellState::kP3: return 0;  // 01
  }
  return 0;
}

/// Most-significant bit stored by `state` (Gray code of Fig. 1).
constexpr int msb_of(CellState state) {
  switch (state) {
    case CellState::kEr: return 1;  // 11
    case CellState::kP1: return 0;  // 10
    case CellState::kP2: return 0;  // 00
    case CellState::kP3: return 1;  // 01
  }
  return 0;
}

/// State encoding a given (LSB, MSB) pair.
constexpr CellState state_of_bits(int lsb, int msb) {
  if (lsb == 1) return msb == 1 ? CellState::kEr : CellState::kP1;
  return msb == 0 ? CellState::kP2 : CellState::kP3;
}

/// Number of differing data bits between two states (0..2).
constexpr int bit_errors_between(CellState a, CellState b) {
  return (lsb_of(a) != lsb_of(b) ? 1 : 0) + (msb_of(a) != msb_of(b) ? 1 : 0);
}

/// Data bits of a state byte, as branch-free arithmetic the vectorizer can
/// keep in byte lanes (equal to lsb_of / msb_of; checked below).
constexpr std::uint8_t lsb_bit(std::uint8_t state) {
  return static_cast<std::uint8_t>(1u ^ (state >> 1));
}
constexpr std::uint8_t msb_bit(std::uint8_t state) {
  return static_cast<std::uint8_t>(
      1u ^ (((static_cast<unsigned>(state) + 1u) >> 1) & 1u));
}

namespace detail {
constexpr bool bit_tables_match() {
  for (const CellState state : kAllStates) {
    const auto byte = static_cast<std::uint8_t>(state);
    if (lsb_bit(byte) != lsb_of(state) || msb_bit(byte) != msb_of(state))
      return false;
  }
  return true;
}
}  // namespace detail
static_assert(detail::bit_tables_match(),
              "branch-free bit extraction must match the Gray code above");

/// Byte view of a CellState row, so state vectors and the chip's state
/// bytes share the batched helpers below (unsigned char may alias any
/// object).
static_assert(sizeof(CellState) == 1);
inline const std::uint8_t* state_bytes(const CellState* states) {
  return reinterpret_cast<const std::uint8_t*>(states);
}
inline std::uint8_t* state_bytes(CellState* states) {
  return reinterpret_cast<std::uint8_t*>(states);
}

/// LSB-page, MSB-page and both-page bit mismatches between the state rows
/// a[0..n) and b[0..n) — bit_errors_between summed over the row, as
/// straight-line loops.
inline int lsb_errors(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n) {
  int errors = 0;
  for (std::size_t i = 0; i < n; ++i) errors += lsb_bit(a[i]) != lsb_bit(b[i]);
  return errors;
}
inline int msb_errors(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n) {
  int errors = 0;
  for (std::size_t i = 0; i < n; ++i) errors += msb_bit(a[i]) != msb_bit(b[i]);
  return errors;
}
inline int bit_errors(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t n) {
  return lsb_errors(a, b, n) + msb_errors(a, b, n);
}

}  // namespace rdsim::flash
