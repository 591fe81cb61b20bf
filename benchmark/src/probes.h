// rdbench/probes.h
//
// Per-layer probes: small timed loops over one public call each, run by
// the traced invocation after its scored repetitions. Each reports the
// median over several batches, so one preempted batch does not move it.
#pragma once

#include <string>
#include <vector>

#include "host/arbitration.h"
#include "host/command.h"
#include "host/device.h"
#include "nand/chip.h"
#include "report.h"

namespace rdbench {

/// Host calibration: wall time of a fixed pure-compute load on a 1-worker
/// ThreadPool over the same load on a `workers`-wide one. What the host
/// actually delivers to perfectly parallel work.
double pool_speedup(int workers);

/// Microseconds per Config::parse + parse_scenario pass over every
/// *.conf file in `config_dir` (file reads excluded); 0 if none.
double cfg_parse_us(const std::string& config_dir);

/// sim.exp_ms.<name>: each registered experiment at tiny scale (the rdsim
/// --tiny settings, seed 42) on `workers` threads.
void experiment_ms(int workers, const std::string& scratch_dir, Metrics* out);

/// Nanoseconds per CompletionStats::add replaying `log` into a fresh
/// CompletionStats; 0 for an empty log.
double stats_add_ns(const std::vector<rdsim::host::Completion>& log);

/// Microseconds for `device` to drain `commands` submitted together
/// (co-pending, stamped at the device clock) under `arbitration`. Leaves
/// that arbitration installed.
double arb_drain_us(rdsim::host::Device& device,
                    const rdsim::host::ArbitrationConfig& arbitration,
                    const std::vector<rdsim::host::Command>& commands);

/// nand.page_sense_us, nand.materialize_us, nand.retry_scan_us and
/// core.rdr_recover_us on `chip`'s blocks. Mutates the chip.
void probe_chip(rdsim::nand::Chip& chip, Metrics* out);

/// Nanoseconds per record of StreamingTraceReader::read_chunk over the
/// rdsim-CSV files `paths`; 0 if they hold no records.
double parse_ns_per_record(const std::vector<std::string>& paths);

}  // namespace rdbench
