#include "host/stats.h"

#include <algorithm>

namespace rdsim::host {
namespace {

/// Every latency histogram's range and resolution: 250 ms at 5 us.
constexpr double kMaxLatencyS = 0.25;
constexpr std::size_t kLatencyBins = 50000;

}  // namespace

CompletionStats::KindAgg::KindAgg()
    : latency(0.0, kMaxLatencyS, kLatencyBins) {}

CompletionStats::TenantAgg::TenantAgg()
    : read_latency(0.0, kMaxLatencyS, kLatencyBins) {}

void CompletionStats::add(const Completion& c) {
  KindAgg& agg = at(c.kind);
  const double latency = c.latency_s();
  const std::uint64_t data_pages =
      c.kind == CommandKind::kFlush ? 0 : c.pages;
  ++agg.count;
  agg.pages += data_pages;
  agg.latency_sum_s += latency;
  agg.max_s = std::max(agg.max_s, latency);
  agg.latency.add(latency);

  if (commands_ == 0 || c.submit_time_s < first_submit_s_)
    first_submit_s_ = c.submit_time_s;
  last_complete_s_ = std::max(last_complete_s_, c.complete_time_s);
  ++commands_;
  stall_seconds_ += c.stall_s;
  ++status_counts_[static_cast<std::size_t>(c.status)];
  error_pages_ += c.error_pages;
  if (c.kind == CommandKind::kRead) read_error_pages_ += c.error_pages;

  if (tenants_.size() <= c.tenant) tenants_.resize(c.tenant + 1);
  TenantAgg& ten = tenants_[c.tenant];
  if (ten.commands == 0 || c.submit_time_s < ten.first_submit_s)
    ten.first_submit_s = c.submit_time_s;
  ten.last_complete_s = std::max(ten.last_complete_s, c.complete_time_s);
  ++ten.kind_counts[static_cast<std::size_t>(c.kind)];
  ++ten.status_counts[static_cast<std::size_t>(c.status)];
  ++ten.commands;
  ten.pages += data_pages;
  ten.error_pages += c.error_pages;
  ten.stall_s += c.stall_s;
  if (c.kind == CommandKind::kRead) {
    ten.read_pages += data_pages;
    ten.read_error_pages += c.error_pages;
    ten.read_latency_sum_s += latency;
    ten.read_max_s = std::max(ten.read_max_s, latency);
    ten.read_latency.add(latency);
  }
}

double CompletionStats::uber(double bits_per_page) const {
  const double bits_read =
      static_cast<double>(pages(CommandKind::kRead)) * bits_per_page;
  return bits_read <= 0.0
             ? 0.0
             : static_cast<double>(read_error_pages_) * bits_per_page /
                   bits_read;
}

double CompletionStats::mean_latency_s(CommandKind kind) const {
  const KindAgg& agg = at(kind);
  return agg.count == 0
             ? 0.0
             : agg.latency_sum_s / static_cast<double>(agg.count);
}

double CompletionStats::latency_quantile_s(CommandKind kind, double q) const {
  return at(kind).latency.quantile(q);
}

double CompletionStats::span_s() const {
  return commands_ == 0 ? 0.0 : last_complete_s_ - first_submit_s_;
}

double CompletionStats::iops() const {
  const double span = span_s();
  return span <= 0.0 ? 0.0 : static_cast<double>(commands_) / span;
}

std::uint64_t CompletionStats::tenant_commands(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0 : ten->commands;
}

std::uint64_t CompletionStats::tenant_commands(std::uint32_t t,
                                               CommandKind kind) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0
                        : ten->kind_counts[static_cast<std::size_t>(kind)];
}

std::uint64_t CompletionStats::tenant_commands(std::uint32_t t,
                                               Status status) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr
             ? 0
             : ten->status_counts[static_cast<std::size_t>(status)];
}

std::uint64_t CompletionStats::tenant_pages(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0 : ten->pages;
}

std::uint64_t CompletionStats::tenant_error_pages(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0 : ten->error_pages;
}

double CompletionStats::tenant_uber(std::uint32_t t,
                                    double bits_per_page) const {
  const TenantAgg* ten = tenant(t);
  if (ten == nullptr) return 0.0;
  const double bits_read =
      static_cast<double>(ten->read_pages) * bits_per_page;
  return bits_read <= 0.0
             ? 0.0
             : static_cast<double>(ten->read_error_pages) * bits_per_page /
                   bits_read;
}

double CompletionStats::tenant_stall_seconds(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0.0 : ten->stall_s;
}

double CompletionStats::tenant_mean_read_latency_s(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  if (ten == nullptr) return 0.0;
  const std::uint64_t reads =
      ten->kind_counts[static_cast<std::size_t>(CommandKind::kRead)];
  return reads == 0 ? 0.0
                    : ten->read_latency_sum_s / static_cast<double>(reads);
}

double CompletionStats::tenant_max_read_latency_s(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0.0 : ten->read_max_s;
}

double CompletionStats::tenant_read_latency_quantile_s(std::uint32_t t,
                                                       double q) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr ? 0.0 : ten->read_latency.quantile(q);
}

double CompletionStats::tenant_span_s(std::uint32_t t) const {
  const TenantAgg* ten = tenant(t);
  return ten == nullptr || ten->commands == 0
             ? 0.0
             : ten->last_complete_s - ten->first_submit_s;
}

double CompletionStats::tenant_iops(std::uint32_t t) const {
  const double span = tenant_span_s(t);
  return span <= 0.0 ? 0.0 : static_cast<double>(tenant_commands(t)) / span;
}

}  // namespace rdsim::host
