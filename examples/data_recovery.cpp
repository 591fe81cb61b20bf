// data_recovery — end-to-end demonstration of Read Disturb Recovery with a
// real BCH code in the loop, on a chip fronted by the queued host
// interface (a one-chip host::Device):
//
// 1. Encode a payload with BCH and program it into a wordline of a worn
//    block (bit-for-bit, via the per-cell MLC data path).
// 2. Hammer the block with a million reads; a host read command of the
//    victim page now returns more raw errors than the code's correction
//    capability t, and decoding fails — this is the traditional "point
//    of data loss".
// 3. Run RDR: disturb-prone boundary cells are identified by inducing
//    extra reads and measuring per-cell threshold shifts, then re-labeled.
// 4. Decode the recovered page: the remaining errors fit within t, and
//    the payload comes back intact.
//
// Usage: ./build/examples/data_recovery
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/rdr.h"
#include "ecc/bch.h"
#include "host/chip_servicer.h"
#include "host/device.h"
#include "nand/chip.h"

using namespace rdsim;

int main() {
  const auto params = flash::FlashModelParams::default_2ynm();
  host::Device device(std::make_unique<host::ChipServicer>(
      nand::Geometry::characterization(), params, 5, host::LatencyParams{}));
  auto& block = device.shard_chip(0).block(0);
  block.erase();  // Replace the device's fill with our own payload below.
  block.add_wear(8000);

  // BCH over GF(2^14): 8192 data bits with t = 30. The payload lives on
  // the MSB page of the victim wordline; the parity travels on its LSB
  // page (a common controller layout).
  const ecc::BchCode code(14, 40, 8192);
  std::printf("BCH(%d, %d, t=%d): %d parity bits\n", code.codeword_bits(),
              code.data_bits(), code.t(), code.parity_bits());

  Rng rng(99);
  ecc::BitVec payload(8192);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next() & 1);
  const auto codeword = code.encode(payload);

  const std::uint32_t victim_wl = 20;
  const auto& geom = block.geometry();
  nand::PageBits lsb(geom.bitlines), msb(geom.bitlines);
  for (std::uint32_t wl = 0; wl < geom.wordlines_per_block; ++wl) {
    for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl) {
      if (wl == victim_wl) {
        msb[bl] = bl < static_cast<std::uint32_t>(code.data_bits())
                      ? codeword[bl]
                      : static_cast<std::uint8_t>(rng.next() & 1);
        lsb[bl] = bl < static_cast<std::uint32_t>(code.parity_bits())
                      ? codeword[code.data_bits() + bl]
                      : static_cast<std::uint8_t>(rng.next() & 1);
      } else {
        msb[bl] = static_cast<std::uint8_t>(rng.next() & 1);
        lsb[bl] = static_cast<std::uint8_t>(rng.next() & 1);
      }
    }
    block.program_wordline(wl, lsb, msb);
  }

  // Assemble the received codeword from a vector of per-cell states.
  auto assemble = [&](const std::vector<flash::CellState>& states) {
    ecc::BitVec received(code.codeword_bits());
    for (int i = 0; i < code.data_bits(); ++i)
      received[i] = static_cast<std::uint8_t>(flash::msb_of(states[i]));
    for (int i = 0; i < code.parity_bits(); ++i)
      received[code.data_bits() + i] =
          static_cast<std::uint8_t>(flash::lsb_of(states[i]));
    return received;
  };
  auto sense_states = [&]() {
    std::vector<flash::CellState> states(geom.bitlines);
    for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl)
      states[bl] = block.model().classify(block.present_vth(victim_wl, bl));
    return states;
  };

  // 2. Hammer and fail. The symptom arrives through the host interface:
  // a queued read of the victim MSB page reports the raw error count.
  block.apply_reads(victim_wl + 1, 8e5);
  {
    host::Command read;
    read.kind = host::CommandKind::kRead;
    read.lpn = 2ull * victim_wl + 1;  // MSB page of the victim wordline.
    device.submit(read);
    std::vector<host::Completion> done;
    device.drain(&done);
    std::printf("\nhost read after 800K disturbs: %s\n",
                host::to_string(done[0]).c_str());
    std::printf("  -> %llu raw bit errors on the wordline\n",
                static_cast<unsigned long long>(device.read_bit_errors()));
  }
  auto received = assemble(sense_states());
  const int raw_errors = ecc::BchCode::hamming_distance(received, codeword);
  auto attempt = code.decode(received);
  std::printf("\nafter 800K read disturbs: %d raw bit errors on the MSB "
              "payload (t = %d)\n",
              raw_errors, code.t());
  std::printf("BCH decode: %s\n",
              attempt.ok ? "OK (unexpected!)" : "FAILED - uncorrectable");
  if (attempt.ok) return 1;

  // 3. RDR.
  core::RdrOptions aggressive;
  aggressive.prone_factor = 1.6;  // Offline recovery affords a deeper sweep.
  const core::ReadDisturbRecovery rdr(aggressive);
  const auto result = rdr.recover(block, victim_wl);
  std::printf("\nRDR: %d -> %d raw errors on the wordline "
              "(%d boundary cells, %d re-labeled)\n",
              result.errors_before, result.errors_after,
              result.cells_in_window, result.cells_relabeled);

  // 4. Hand the recovered states to ECC.
  const auto recovered = assemble(result.corrected_states);
  const int post_errors = ecc::BchCode::hamming_distance(recovered, codeword);
  attempt = code.decode(recovered);
  std::printf("\nafter RDR: %d raw errors handed to BCH\n", post_errors);
  if (attempt.ok && attempt.data == payload) {
    std::printf("BCH decode: OK — payload recovered intact "
                "(%d corrections)\n", attempt.corrected);
    return 0;
  }
  std::printf("BCH decode: %s\n", attempt.ok
                                      ? "OK but payload mismatch (bug!)"
                                      : "still uncorrectable on this block");
  return 1;
}
