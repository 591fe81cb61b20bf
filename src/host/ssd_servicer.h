// rdsim/host/ssd_servicer.h
//
// SsdServicer: the analytic implementation of the host::Servicer shard
// slot — one ssd::Ssd (FTL + closed-form RBER + the paper's maintenance
// loop) behind the shard interface, so host::Device stripes the
// logical page space RAID-0 over N independent analytic drives exactly
// as it stripes over N Monte Carlo chips. Each shard runs its own FTL,
// garbage collection, refresh, and Vpass tuning over its slice of the
// space; the nightly maintenance's flash busy seconds are returned so
// the device reserves the shard's timeline for them.
//
// The single analytic drive (`backend = analytic`) is the one-shard
// case: its servicer receives every global command verbatim, and
// shard_servicer(0) downcast to SsdServicer reaches the ssd::Ssd.
#pragma once

#include <cstdint>

#include "host/servicer.h"
#include "ssd/ssd.h"

namespace rdsim::host {

class SsdServicer : public Servicer {
 public:
  SsdServicer(const ssd::SsdConfig& config,
              const flash::FlashModelParams& params, std::uint64_t seed)
      : ssd_(config, params, seed) {}

  ssd::Ssd& ssd() { return ssd_; }
  const ssd::Ssd& ssd() const { return ssd_; }

  std::uint64_t logical_pages() const override {
    return ssd_.ftl().config().logical_pages();
  }

  ServiceCost service(const Command& command) override {
    return ssd_.service(command);
  }

  double end_of_day() override { return ssd_.end_of_day(); }

  std::uint64_t pages_read() const override {
    return ssd_.ftl().stats().host_reads;
  }
  std::uint64_t pages_written() const override {
    return ssd_.ftl().stats().host_writes;
  }
  /// FTL erases (GC + refresh + reclaim) — the analytic counterpart of
  /// the MC chip's log-structured turnover count.
  std::uint64_t block_rewrites() const override {
    const auto& fs = ssd_.ftl().stats();
    return fs.gc_erases + fs.refreshes + fs.reclaims;
  }

  /// Error-path attribution mapped from the SSD/FTL counters: the
  /// analytic drive has no escalation ladder (closed-form ECC decodes or
  /// fails outright), so the retry/RDR fields stay zero.
  ErrorStats error_stats() const override {
    const auto& fs = ssd_.ftl().stats();
    const auto& ss = ssd_.stats();
    ErrorStats e;
    e.reads_ok = fs.host_reads - ss.host_uncorrectable_pages;
    e.reads_uncorrectable = ss.host_uncorrectable_pages;
    e.writes_failed = ss.host_failed_writes;
    e.writes_rejected_read_only = ss.host_readonly_writes;
    return e;
  }

 private:
  ssd::Ssd ssd_;
};

}  // namespace rdsim::host
