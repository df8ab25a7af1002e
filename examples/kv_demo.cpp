// KV workload engine quick-start: a sharded transactional store on one
// registered backend, the two mixed-access fast paths demonstrated by hand,
// then a couple of standard mixes driven with latency reporting and
// streaming runtime conformance (every 4th round checked).
//
// Usage: kv_demo [--backend NAME] [--threads N] [--ops N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "kv/kvstore.hpp"
#include "kv/workload.hpp"
#include "stm/backend.hpp"
#include "substrate/format.hpp"

int main(int argc, char** argv) {
  using namespace mtx;
  std::string backend = "tl2";
  std::size_t threads = 3;
  std::uint64_t ops = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc)
      backend = argv[++i];
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc)
      ops = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  auto stm = stm::make_backend(backend);
  if (!stm) {
    std::fprintf(stderr, "unknown backend: %s\n", backend.c_str());
    return 2;
  }

  // --- the store and its mixed-access protocols, by hand ---
  kv::KvStore::Options so;
  so.shards = 4;
  so.expected_keys = 64;
  kv::KvStore store(*stm, so);
  for (std::int64_t k = 0; k < 32; ++k) store.put(k, k * 100);
  store.publish_snapshot({0, 1, 2, 3});

  std::printf("store: %zu keys across %zu shards (%zu buckets each)\n",
              store.size(), store.shards(), store.bucket_count(0));

  // privatize-scan: flag + quiescence fence, then plain-access reads.
  const kv::ScanResult scan = store.privatize_scan(store.shard_of(5));
  std::printf("privatize-scan of shard %zu: %zu keys, value sum %lld\n",
              store.shard_of(5), scan.keys,
              static_cast<long long>(scan.value_sum));

  // snapshot-read: publication handoff once, then pure plain loads.
  store.snapshot_attach();
  std::int64_t frozen = 0;
  store.snapshot_read(2, &frozen);
  store.put(2, 999999);  // later transactional update...
  std::int64_t now = 0;
  store.get(2, &now);
  store.snapshot_read(2, &frozen);
  std::printf("key 2: live value %lld, frozen snapshot value %lld\n\n",
              static_cast<long long>(now), static_cast<long long>(frozen));

  // --- standard mixes under load, streaming conformance on ---
  Table t({"mix", "ops/s", "p50us", "p99us", "scans", "windows", "verdict"});
  for (const char* name : {"a", "priv_heavy", "pub_heavy"}) {
    auto fresh = stm::make_backend(backend);
    kv::KvWorkloadOptions o;
    o.threads = threads;
    o.seed = 7;
    o.ops_per_thread = ops / (threads ? threads : 1);
    o.store.preload_keys = 24;
    o.store.shards = 2;
    o.store.snap_keys = 4;
    o.sample_every = 4;
    o.round_ops = 16;
    const kv::KvResult r =
        kv::run_kv_workload(*fresh, *kv::mix_by_name(name), o);
    t.add_row({r.mix, fixed(r.ops_per_sec, 0),
               fixed(static_cast<double>(r.p50_ns) / 1e3, 2),
               fixed(static_cast<double>(r.p99_ns) / 1e3, 2),
               std::to_string(r.scans_completed), std::to_string(r.conf.windows),
               r.invariant_ok && r.conf.all_ok() ? "conformant" : "VIOLATION"});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
