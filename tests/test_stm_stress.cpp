// Multithreaded integration tests: atomicity invariants under contention,
// opacity under fire, and the §5 privatization / publication protocols with
// quiescence fences — run against every registered backend through the
// unified StmBackend registry (one parameterized suite, no per-backend
// template copies).
#include <gtest/gtest.h>

#include <atomic>

#include "containers/bank.hpp"
#include "stm/backend.hpp"
#include "stm/tl2.hpp"
#include "substrate/rng.hpp"
#include "substrate/threading.hpp"

namespace mtx::stm {
namespace {

std::size_t stress_threads() { return std::min<std::size_t>(hw_threads(), 8); }

class BackendStress : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<StmBackend> stm_ = make_backend(GetParam());
};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendStress,
                         ::testing::ValuesIn(backend_names()),
                         [](const auto& info) { return info.param; });

TEST_P(BackendStress, Counter) {
  StmBackend& stm = *stm_;
  Cell x(0);
  const std::size_t threads = stress_threads();
  constexpr int kIters = 3000;
  run_team(threads, [&](std::size_t) {
    for (int i = 0; i < kIters; ++i)
      stm.atomically([&](auto& tx) { tx.write(x, tx.read(x) + 1); });
  });
  EXPECT_EQ(x.plain_load(), threads * kIters);
  EXPECT_EQ(stm.stats().commits.load(), threads * kIters);
}

TEST_P(BackendStress, BankConservation) {
  StmBackend& stm = *stm_;
  containers::Bank<StmBackend> bank(stm, 64, 1000);
  const std::size_t threads = stress_threads();
  run_team(threads, [&](std::size_t tid) {
    Rng rng(tid + 1);
    for (int i = 0; i < 2000; ++i) {
      const auto from = static_cast<std::size_t>(rng.below(bank.size()));
      const auto to = static_cast<std::size_t>(rng.below(bank.size()));
      bank.transfer(from, to, rng.range(1, 50));
      if (i % 128 == 0) {
        EXPECT_EQ(bank.total(), bank.expected_total());
      }
    }
  });
  EXPECT_EQ(bank.total(), bank.expected_total());
}

// Opacity under fire: two cells always updated together; every transactional
// snapshot must see them equal.
TEST_P(BackendStress, SnapshotConsistency) {
  StmBackend& stm = *stm_;
  Cell a(0), b(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  const std::size_t threads = std::max<std::size_t>(stress_threads(), 2);
  run_team(threads, [&](std::size_t tid) {
    if (tid == 0) {
      for (int i = 1; i <= 4000; ++i)
        stm.atomically([&](auto& tx) {
          tx.write(a, static_cast<word_t>(i));
          tx.write(b, static_cast<word_t>(i));
        });
      stop = true;
      return;
    }
    while (!stop) {
      word_t ra = 0, rb = 0;
      stm.atomically([&](auto& tx) {
        ra = tx.read(a);
        rb = tx.read(b);
      });
      if (ra != rb) bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0u);
}

// The §1/§5 privatization protocol on the runtime: a thread marks a cell
// private inside a transaction, fences, then works on it with plain
// accesses; mutator threads only touch the cell inside transactions that
// re-check the flag.  The plain phase must never observe interference.
TEST_P(BackendStress, PrivatizationProtocol) {
  StmBackend& stm = *stm_;
  Cell flag(0);  // 0 = shared, 1 = privatized
  Cell data(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  run_team(2, [&](std::size_t tid) {
    if (tid == 0) {
      // Mutators: bump data while it is shared.
      while (!stop) {
        stm.atomically([&](auto& tx) {
          if (tx.read(flag) == 0) tx.write(data, tx.read(data) + 1);
        });
      }
      return;
    }
    // Privatizer.
    for (int round = 0; round < 200; ++round) {
      stm.atomically([&](auto& tx) { tx.write(flag, 1); });
      stm.quiesce();  // drain in-flight transactions (the §5 fence)
      // Plain phase: we own data now.
      const word_t v = data.plain_load();
      data.plain_store(v + 1000);
      if (data.plain_load() != v + 1000) violations.fetch_add(1);
      data.plain_store(v);
      stm.atomically([&](auto& tx) { tx.write(flag, 0); });
    }
    stop = true;
  });
  EXPECT_EQ(violations.load(), 0u);
}

// Publication: initialize data plainly, publish via a transactional flag;
// readers that transactionally observe the flag must see the payload (no
// fence required -- the direct dependency provides order, per §5/§6).
TEST_P(BackendStress, PublicationProtocol) {
  StmBackend& stm = *stm_;
  for (int round = 0; round < 300; ++round) {
    Cell flag(0), payload(0);
    std::atomic<std::uint64_t> violations{0};
    run_team(2, [&](std::size_t tid) {
      if (tid == 0) {
        payload.plain_store(42);  // plain initialization
        stm.atomically([&](auto& tx) { tx.write(flag, 1); });
        return;
      }
      word_t f = 0;
      stm.atomically([&](auto& tx) { f = tx.read(flag); });
      if (f == 1 && payload.plain_load() != 42) violations.fetch_add(1);
    });
    ASSERT_EQ(violations.load(), 0u) << "round " << round;
  }
}

// Mixed user aborts under contention: transactions write real garbage into
// the cells and then abort half the time; the conserved sum must survive
// (this exercises the undo-log backends hard).
TEST_P(BackendStress, AbortStorm) {
  StmBackend& stm = *stm_;
  constexpr std::size_t kCells = 16;
  std::vector<Cell> cells(kCells);
  for (auto& c : cells) c.plain_store(100);
  run_team(stress_threads(), [&](std::size_t tid) {
    Rng rng(tid * 77 + 5);
    for (int i = 0; i < 1500; ++i) {
      const auto from = static_cast<std::size_t>(rng.below(kCells));
      // Pick a distinct target (from == to would double-write one cell and
      // break conservation by construction).
      const auto to = (from + 1 + static_cast<std::size_t>(rng.below(kCells - 1))) % kCells;
      const bool doomed = rng.chance(1, 2);
      stm.atomically([&](auto& tx) {
        const word_t f = tx.read(cells[from]);
        const word_t t = tx.read(cells[to]);
        tx.write(cells[from], f - 7);
        tx.write(cells[to], t + 7);
        if (doomed) tx.user_abort();  // everything above must vanish
      });
    }
  });
  word_t sum = 0;
  for (auto& c : cells) sum += c.plain_load();
  EXPECT_EQ(sum, kCells * 100);
}

// Quiescence fence actually waits: a long-running transaction must resolve
// before a concurrent fence returns.  (Backend-specific: drives Tl2Stm::Tx
// directly to hold a transaction open.)  The assertions are what the fence
// guarantees: the in-flight transaction's committed write is visible when
// quiesce() returns, and the transaction body never observes the fence as
// finished.  A flag set only after atomically() returns would not do: the
// fence may legitimately return between the backend's end_txn and that
// store.
TEST(Quiesce, FenceWaitsForInFlightTxn) {
  Tl2Stm stm;
  Cell x(0);
  std::atomic<bool> in_txn{false};
  std::atomic<bool> fence_done{false};
  std::atomic<bool> fence_overtook_txn{false};

  run_team(2, [&](std::size_t tid) {
    if (tid == 0) {
      stm.atomically([&](auto& tx) {
        tx.write(x, 1);
        in_txn = true;
        // Hold the transaction open briefly.
        for (int i = 0; i < 200000; ++i) {
          if (fence_done.load()) {  // fence must NOT finish before us
            fence_overtook_txn = true;
            break;
          }
          std::atomic_signal_fence(std::memory_order_seq_cst);
        }
      });
      return;
    }
    while (!in_txn) std::this_thread::yield();
    stm.quiesce();
    // At fence return the transaction has committed and written back.
    EXPECT_EQ(x.plain_load(), 1u);
    fence_done = true;
  });
  EXPECT_TRUE(fence_done.load());
  EXPECT_FALSE(fence_overtook_txn.load());
}

}  // namespace
}  // namespace mtx::stm
