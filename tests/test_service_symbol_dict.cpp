// Stress test of the session symbol dictionary (DESIGN.md §14), run under
// ThreadSanitizer with the rest of the service suite: four workers intern
// overlapping (image, symbol) pairs in different orders, in batches as the
// ingest workers do, while a reader reads strings back by id. Ids must be
// dense and stable, every pair must map to exactly one id, and every
// string must read back intact.
#include "core/symbol_dict.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace viprof::core {
namespace {

constexpr std::size_t kNames = 3000;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kBatch = 48;

std::string image_of(std::size_t k) { return "image-" + std::to_string(k % 7) + ".so"; }
// Long enough to live outside the small-string buffer.
std::string symbol_of(std::size_t k) {
  return "com.example.pkg.Class" + std::to_string(k) + ".method" + std::to_string(k);
}

TEST(SymbolDictStress, ConcurrentInternsAreDenseStableAndIntact) {
  SymbolDict dict;
  std::vector<std::vector<SymbolId>> ids(kWorkers, std::vector<SymbolId>(kNames));
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};

  std::thread reader([&] {
    do {
      const std::size_t n = dict.size();
      for (SymbolId id = 0; id < n; ++id) {
        const std::string& symbol = dict.symbol(id);
        const std::string& image = dict.image(id);
        // Parse the name back to its k and check both strings agree.
        const std::size_t at = symbol.find("Class");
        ASSERT_NE(at, std::string::npos) << symbol;
        const std::size_t k = std::stoul(symbol.substr(at + 5));
        ASSERT_EQ(symbol, symbol_of(k));
        ASSERT_EQ(image, image_of(k));
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    } while (!done.load(std::memory_order_acquire));
  });

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<std::size_t> order(kNames);
      for (std::size_t k = 0; k < kNames; ++k) order[k] = k;
      std::mt19937 rng(static_cast<unsigned>(0xd1c7 + w));
      std::shuffle(order.begin(), order.end(), rng);
      for (int pass = 0; pass < 2; ++pass) {  // the second pass finds every pair
        for (std::size_t at = 0; at < kNames; at += kBatch) {
          const std::size_t end = std::min(kNames, at + kBatch);
          std::vector<SymbolDict::Name> names;
          for (std::size_t i = at; i < end; ++i)
            names.push_back({image_of(order[i]), symbol_of(order[i])});
          const std::vector<SymbolId> got = dict.intern(std::move(names));
          ASSERT_EQ(got.size(), end - at);
          for (std::size_t i = at; i < end; ++i) {
            if (pass == 0)
              ids[w][order[i]] = got[i - at];
            else
              ASSERT_EQ(got[i - at], ids[w][order[i]]) << "id of " << order[i] << " moved";
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);

  // One id per pair, the same for every worker; ids dense from 0.
  ASSERT_EQ(dict.size(), kNames);
  std::vector<bool> taken(kNames, false);
  for (std::size_t k = 0; k < kNames; ++k) {
    const SymbolId id = ids[0][k];
    for (std::size_t w = 1; w < kWorkers; ++w) EXPECT_EQ(ids[w][k], id) << "pair " << k;
    ASSERT_LT(id, kNames);
    EXPECT_FALSE(taken[id]) << "id " << id << " names two pairs";
    taken[id] = true;
    EXPECT_EQ(dict.image(id), image_of(k));
    EXPECT_EQ(dict.symbol(id), symbol_of(k));
  }
}

}  // namespace
}  // namespace viprof::core
