// rdsim/host/stats.h
//
// CompletionStats aggregates the completion stream of a host::Device:
// per-kind command/page counts, throughput over the simulated makespan,
// and latency mean / p50 / p99 / p999 via common::Histogram — the
// system-level numbers the QoS experiments report. Every completion is
// additionally sliced by its tenant id, so multi-tenant devices report
// per-tenant IOPS, read-latency quantiles, stall share, and error-status
// counts alongside the global aggregates (the tenant_* accessors; the
// per-tenant rows always sum back to the global log — the conservation
// invariant tests/test_arbitration.cc enforces). Every latency histogram
// spans [0, 250 ms) at 5 us resolution; samples beyond the range clamp
// into the last bin, so a saturated tail reports the histogram ceiling —
// never silently less (max_latency_s() stays exact).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "host/command.h"

namespace rdsim::host {

class CompletionStats {
 public:
  void add(const Completion& completion);

  std::uint64_t commands() const { return commands_; }
  std::uint64_t commands(CommandKind kind) const { return at(kind).count; }
  std::uint64_t pages(CommandKind kind) const { return at(kind).pages; }

  /// Commands that completed with `status` (worst per-page outcome).
  std::uint64_t commands(Status status) const {
    return status_counts_[static_cast<std::size_t>(status)];
  }
  /// Total pages reported uncorrectable or lost across all completions.
  std::uint64_t error_pages() const { return error_pages_; }

  /// Host-observed uncorrectable bit error rate: uncorrectable read pages
  /// (each counted as `bits_per_page` suspect bits) over all bits read.
  /// 0 when nothing was read.
  double uber(double bits_per_page) const;

  /// Mean latency of `kind` commands (exact, not binned). 0 when none.
  double mean_latency_s(CommandKind kind) const;
  /// Largest observed latency of `kind` commands (exact).
  double max_latency_s(CommandKind kind) const { return at(kind).max_s; }
  /// Binned latency quantile (see Histogram::quantile) of `kind` commands.
  double latency_quantile_s(CommandKind kind, double q) const;

  /// Total background-induced stall time attributed across completions.
  double stall_seconds() const { return stall_seconds_; }

  /// Simulated makespan: first submission to last completion.
  double span_s() const;
  /// Commands per simulated second over the makespan (0 if degenerate).
  double iops() const;

  // --- Per-tenant slices ---------------------------------------------------
  // Grown lazily to the largest tenant id observed + 1; every accessor
  // returns zero for a tenant never seen, so callers can iterate the
  // device's configured tenant count without guarding.

  /// Tenant ids observed in the completion stream (max id + 1; 0 when
  /// nothing was recorded).
  std::uint32_t tenants_seen() const {
    return static_cast<std::uint32_t>(tenants_.size());
  }

  std::uint64_t tenant_commands(std::uint32_t tenant) const;
  std::uint64_t tenant_commands(std::uint32_t tenant, CommandKind kind) const;
  std::uint64_t tenant_commands(std::uint32_t tenant, Status status) const;
  std::uint64_t tenant_pages(std::uint32_t tenant) const;
  std::uint64_t tenant_error_pages(std::uint32_t tenant) const;

  /// Tenant `tenant`'s host-observed uncorrectable bit error rate over
  /// its own reads (same convention as uber()).
  double tenant_uber(std::uint32_t tenant, double bits_per_page) const;

  /// Background-induced stall attributed to tenant `tenant`'s commands.
  double tenant_stall_seconds(std::uint32_t tenant) const;

  /// Tenant read-latency shape: mean (exact), max (exact), and binned
  /// quantile over the tenant's read completions only.
  double tenant_mean_read_latency_s(std::uint32_t tenant) const;
  double tenant_max_read_latency_s(std::uint32_t tenant) const;
  double tenant_read_latency_quantile_s(std::uint32_t tenant,
                                        double q) const;

  /// Tenant makespan (its first submission to its last completion) and
  /// commands per simulated second over it (0 if degenerate).
  double tenant_span_s(std::uint32_t tenant) const;
  double tenant_iops(std::uint32_t tenant) const;

 private:
  struct KindAgg {
    std::uint64_t count = 0;
    std::uint64_t pages = 0;
    double latency_sum_s = 0.0;
    double max_s = 0.0;
    Histogram latency;
    KindAgg();
  };
  /// One tenant's slice of the stream. Only reads get a latency
  /// histogram — the per-tenant tail the QoS experiments report is read
  /// latency; writes and trims keep counts and stall only.
  struct TenantAgg {
    std::array<std::uint64_t, 4> kind_counts{};
    std::array<std::uint64_t, kStatusCount> status_counts{};
    std::uint64_t commands = 0;
    std::uint64_t pages = 0;
    std::uint64_t read_pages = 0;
    std::uint64_t error_pages = 0;
    std::uint64_t read_error_pages = 0;
    double stall_s = 0.0;
    double read_latency_sum_s = 0.0;
    double read_max_s = 0.0;
    Histogram read_latency;
    double first_submit_s = 0.0;
    double last_complete_s = 0.0;
    TenantAgg();
  };
  const KindAgg& at(CommandKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)];
  }
  KindAgg& at(CommandKind kind) {
    return kinds_[static_cast<std::size_t>(kind)];
  }
  /// nullptr when the tenant was never observed.
  const TenantAgg* tenant(std::uint32_t tenant) const {
    return tenant < tenants_.size() ? &tenants_[tenant] : nullptr;
  }

  std::array<KindAgg, 4> kinds_;
  std::array<std::uint64_t, kStatusCount> status_counts_{};
  std::vector<TenantAgg> tenants_;
  std::uint64_t commands_ = 0;
  std::uint64_t error_pages_ = 0;
  std::uint64_t read_error_pages_ = 0;
  double stall_seconds_ = 0.0;
  double first_submit_s_ = 0.0;
  double last_complete_s_ = 0.0;
};

}  // namespace rdsim::host
