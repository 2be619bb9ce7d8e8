#include "util/pool.hpp"

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace fluxion::util {
namespace {

struct Tracked {
  static int live;
  int value;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(Pool, CreateConstructsAndDestroyDestructs) {
  Pool<Tracked> pool;
  Tracked* a = pool.create(7);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 7);
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.destroy(a);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, FirstSlabIsAllocatedLazily) {
  Pool<std::int64_t> pool;
  EXPECT_EQ(pool.capacity(), 0u);  // an untouched pool holds no slab
  std::int64_t* p = pool.create(1);
  const std::size_t one_slab = pool.capacity();
  EXPECT_GT(one_slab, 0u);
  pool.destroy(p);
  EXPECT_EQ(pool.capacity(), one_slab);  // freed slots stay for reuse
}

TEST(Pool, RecyclesSlotsWithoutGrowing) {
  Pool<std::int64_t> pool;
  std::int64_t* p = pool.create(1);
  pool.destroy(p);
  const std::size_t cap = pool.capacity();
  // Steady-state churn far beyond one slab must not grow the pool.
  for (int i = 0; i < 10000; ++i) {
    std::int64_t* q = pool.create(i);
    EXPECT_EQ(*q, i);
    pool.destroy(q);
  }
  EXPECT_EQ(pool.capacity(), cap);
}

TEST(Pool, DistinctLiveObjects) {
  Pool<int> pool;
  std::set<int*> ptrs;
  for (int i = 0; i < 200; ++i) {  // spans multiple slabs
    int* p = pool.create(i);
    EXPECT_TRUE(ptrs.insert(p).second) << "slot handed out twice";
  }
  EXPECT_EQ(pool.live(), 200u);
  EXPECT_GE(pool.capacity(), 200u);
  for (int* p : ptrs) {
    EXPECT_GE(*p, 0);
    pool.destroy(p);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, LifoRecyclingReusesTheFreedSlot) {
  Pool<int> pool;
  int* a = pool.create(1);
  pool.destroy(a);
  int* b = pool.create(2);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  EXPECT_EQ(*b, 2);
  pool.destroy(b);
}

TEST(Pool, NonTrivialTypes) {
  Pool<std::string> pool;
  std::string* s = pool.create("hello, slab");
  EXPECT_EQ(*s, "hello, slab");
  pool.destroy(s);
  std::string* t = pool.create(std::size_t{100}, 'x');
  EXPECT_EQ(t->size(), 100u);
  pool.destroy(t);
}

}  // namespace
}  // namespace fluxion::util
