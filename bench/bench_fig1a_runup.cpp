// Figure 1a: cumulative runup of IPv6 addresses per source over the
// measurement campaign (2017-08 .. 2018-05 ~ days 0..270).

#include "bench_common.h"
#include "sources/sources.h"
#include "util/histogram.h"

using namespace v6h;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::header("Figure 1a: cumulative address runup per source");

  auto eng = args.make_engine();
  const netsim::Universe universe(args.universe_params(), &eng);
  sources::SourceSimulator sources(universe);

  std::vector<ipv6::Address> targets;
  std::unordered_map<ipv6::Address, bool, ipv6::AddressHash> seen;
  // The cross-source dedup is the bench's serial residue; sizing it
  // up front keeps rehashing out of the --threads comparison.
  const auto expected =
      static_cast<std::size_t>(70000 * args.scale) + 1024;
  seen.reserve(expected);
  targets.reserve(expected);
  const int step = 15;
  std::map<netsim::SourceId, std::vector<std::size_t>> series;
  std::vector<int> days;
  for (int day = 0; day <= args.horizon; day += step) {
    days.push_back(day);
    for (const auto source : netsim::kAllSources) {
      const auto result = source == netsim::SourceId::kScamper
                              ? sources.collect(source, day, targets)
                              : sources.collect(source, day);
      for (const auto& a : result.new_addresses) {
        if (seen.emplace(a, true).second) targets.push_back(a);
      }
      series[source].push_back(result.cumulative_count);
    }
  }

  std::printf("day:");
  for (const int d : days) std::printf("%8d", d);
  std::printf("\n");
  for (const auto source : netsim::kAllSources) {
    std::printf("%-8s", short_name(source));
    for (const auto count : series[source]) std::printf("%8zu", count);
    const auto& s = series[source];
    std::vector<double> normalized;
    for (const auto count : s) {
      normalized.push_back(s.back() == 0 ? 0.0
                                         : static_cast<double>(count) /
                                               static_cast<double>(s.back()));
    }
    std::printf("  |%s|\n", util::sparkline(normalized).c_str());
  }

  // Shape assertions from the paper: strong overall growth (10-100x/yr
  // across sources), scamper and the DNS sources dominate, CT jumps
  // mid-campaign.
  const auto& scamper = series[netsim::SourceId::kScamper];
  const auto& dl = series[netsim::SourceId::kDomainLists];
  const auto& ct = series[netsim::SourceId::kCt];
  bench::compare("scamper final vs DL final", "26.0M vs 9.8M (2.7x)",
                 std::to_string(scamper.back()) + " vs " + std::to_string(dl.back()));
  const std::size_t day60 = std::min<std::size_t>(4, ct.size() - 1);
  bench::compare("CT growth after ingestion started", "jump visible",
                 util::format_double(static_cast<double>(ct.back()) /
                                         std::max<std::size_t>(ct[day60], 1),
                                     1) +
                     "x from day " + std::to_string(days[day60]));
  bench::compare("total at horizon", "58.5M cumulative",
                 util::human_count(static_cast<double>(targets.size())));
  return 0;
}
