#include "rbtree/rbtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace fluxion::rbtree {
namespace {

// Plain keyed node.
struct IntNode : RbNode {
  explicit IntNode(int k) : key(k) {}
  int key;
};
struct IntTraits {
  static bool less(const IntNode& a, const IntNode& b) noexcept {
    return a.key < b.key;
  }
};
using IntTree = RbTree<IntNode, IntTraits>;

int cmp_key(int probe, const IntNode& n) {
  return probe < n.key ? -1 : (probe > n.key ? 1 : 0);
}

// Augmented node: subtree minimum of an auxiliary value, mirroring the
// planner's time tree (key `at`, summary the least `in_use`): the key is
// not the augmented source, so the source can change in place.
struct AugNode : RbNode {
  AugNode(int k, int a) : key(k), aux(a) {}
  int key;
  int aux;
  int subtree_min_aux = 0;
};
struct AugTraits {
  static bool less(const AugNode& a, const AugNode& b) noexcept {
    return a.key < b.key;
  }
  static bool update(AugNode& n) noexcept {
    int m = n.aux;
    if (auto* l = static_cast<AugNode*>(n.left)) {
      m = std::min(m, l->subtree_min_aux);
    }
    if (auto* r = static_cast<AugNode*>(n.right)) {
      m = std::min(m, r->subtree_min_aux);
    }
    const bool changed = m != n.subtree_min_aux;
    n.subtree_min_aux = m;
    return changed;
  }
};
using AugTree = RbTree<AugNode, AugTraits>;

int brute_min_aux(const AugNode* n) {
  if (n == nullptr) return INT_MAX;
  int m = n->aux;
  m = std::min(m, brute_min_aux(static_cast<const AugNode*>(n->left)));
  m = std::min(m, brute_min_aux(static_cast<const AugNode*>(n->right)));
  return m;
}

bool aug_exact(const AugNode* n) {
  if (n == nullptr) return true;
  if (n->subtree_min_aux != brute_min_aux(n)) return false;
  return aug_exact(static_cast<const AugNode*>(n->left)) &&
         aug_exact(static_cast<const AugNode*>(n->right));
}

TEST(RbTree, EmptyTree) {
  IntTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.min(), nullptr);
  EXPECT_EQ(t.max(), nullptr);
  EXPECT_EQ(t.validate(), 0);
}

TEST(RbTree, SingleInsert) {
  IntTree t;
  IntNode n(5);
  t.insert(&n);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.min(), &n);
  EXPECT_EQ(t.max(), &n);
  EXPECT_GT(t.validate(), 0);
  t.erase(&n);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(n.linked());
}

TEST(RbTree, InOrderTraversal) {
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> nodes;
  for (int k : {5, 3, 8, 1, 4, 7, 9, 2, 6, 0}) {
    nodes.push_back(std::make_unique<IntNode>(k));
    t.insert(nodes.back().get());
  }
  std::vector<int> order;
  for (IntNode* n = t.min(); n != nullptr; n = IntTree::next(n)) {
    order.push_back(n->key);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  std::vector<int> rev;
  for (IntNode* n = t.max(); n != nullptr; n = IntTree::prev(n)) {
    rev.push_back(n->key);
  }
  EXPECT_EQ(rev, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(RbTree, DuplicateKeysAllowed) {
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> nodes;
  for (int k : {5, 5, 5, 3, 3, 8}) {
    nodes.push_back(std::make_unique<IntNode>(k));
    t.insert(nodes.back().get());
  }
  EXPECT_EQ(t.size(), 6u);
  EXPECT_GE(t.validate(), 0);
  int count5 = 0;
  for (IntNode* n = t.min(); n != nullptr; n = IntTree::next(n)) {
    if (n->key == 5) ++count5;
  }
  EXPECT_EQ(count5, 3);
}

TEST(RbTree, FloorAndLowerBound) {
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> nodes;
  for (int k : {10, 20, 30, 40}) {
    nodes.push_back(std::make_unique<IntNode>(k));
    t.insert(nodes.back().get());
  }
  EXPECT_EQ(t.floor(25, cmp_key)->key, 20);
  EXPECT_EQ(t.floor(20, cmp_key)->key, 20);
  EXPECT_EQ(t.floor(5, cmp_key), nullptr);
  EXPECT_EQ(t.floor(100, cmp_key)->key, 40);
  EXPECT_EQ(t.lower_bound(25, cmp_key)->key, 30);
  EXPECT_EQ(t.lower_bound(30, cmp_key)->key, 30);
  EXPECT_EQ(t.lower_bound(41, cmp_key), nullptr);
  EXPECT_EQ(t.find(30, cmp_key)->key, 30);
  EXPECT_EQ(t.find(31, cmp_key), nullptr);
}

TEST(RbTree, EraseReinsertionCycle) {
  IntTree t;
  IntNode a(1), b(2), c(3);
  t.insert(&a);
  t.insert(&b);
  t.insert(&c);
  t.erase(&b);
  EXPECT_FALSE(b.linked());
  b.key = 10;
  t.insert(&b);
  EXPECT_EQ(t.max(), &b);
  EXPECT_GE(t.validate(), 0);
}

TEST(RbTreeProperty, RandomInsertEraseKeepsInvariants) {
  util::Rng rng(20230928);
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> pool;
  std::vector<IntNode*> live;
  std::multiset<int> oracle;
  for (int step = 0; step < 4000; ++step) {
    const bool do_insert = live.empty() || rng.chance(0.6);
    if (do_insert) {
      pool.push_back(
          std::make_unique<IntNode>(static_cast<int>(rng.uniform(0, 500))));
      IntNode* n = pool.back().get();
      t.insert(n);
      live.push_back(n);
      oracle.insert(n->key);
    } else {
      const auto i = rng.index(live.size());
      IntNode* n = live[i];
      t.erase(n);
      oracle.erase(oracle.find(n->key));
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 37 == 0) {
      ASSERT_GE(t.validate(), 0) << "step " << step;
      ASSERT_EQ(t.size(), oracle.size());
    }
  }
  ASSERT_GE(t.validate(), 0);
  std::vector<int> inorder;
  for (IntNode* n = t.min(); n != nullptr; n = IntTree::next(n)) {
    inorder.push_back(n->key);
  }
  std::vector<int> expect(oracle.begin(), oracle.end());
  EXPECT_EQ(inorder, expect);
}

TEST(RbTreeProperty, AugmentationStaysExactUnderChurn) {
  util::Rng rng(424242);
  AugTree t;
  std::vector<std::unique_ptr<AugNode>> pool;
  std::vector<AugNode*> live;
  for (int step = 0; step < 3000; ++step) {
    const bool do_insert = live.empty() || rng.chance(0.55);
    if (do_insert) {
      pool.push_back(std::make_unique<AugNode>(
          static_cast<int>(rng.uniform(0, 200)),
          static_cast<int>(rng.uniform(0, 100000))));
      t.insert(pool.back().get());
      live.push_back(pool.back().get());
    } else {
      const auto i = rng.index(live.size());
      t.erase(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 29 == 0) {
      ASSERT_GE(t.validate(), 0) << "step " << step;
      ASSERT_TRUE(aug_exact(t.root())) << "step " << step;
    }
  }
  ASSERT_TRUE(aug_exact(t.root()));
}

TEST(RbTreeProperty, AugmentationExactAfterRekeying) {
  // A key change is erase + mutate + insert; the summaries must follow.
  util::Rng rng(7);
  AugTree t;
  std::vector<std::unique_ptr<AugNode>> pool;
  for (int i = 0; i < 300; ++i) {
    pool.push_back(std::make_unique<AugNode>(
        static_cast<int>(rng.uniform(0, 100)),
        static_cast<int>(rng.uniform(0, 1000))));
    t.insert(pool.back().get());
  }
  for (int step = 0; step < 2000; ++step) {
    AugNode* n = pool[rng.index(pool.size())].get();
    t.erase(n);
    n->key = static_cast<int>(rng.uniform(0, 100));
    t.insert(n);
    if (step % 61 == 0) {
      ASSERT_GE(t.validate(), 0);
      ASSERT_TRUE(aug_exact(t.root()));
    }
  }
}

TEST(RbTreeProperty, AugmentationExactAfterInPlaceRefresh) {
  // The planner rewrites a point's in_use without moving it and calls
  // refresh, which stops climbing at the first unchanged summary; the
  // summaries must stay exact, including under churn between rewrites.
  util::Rng rng(99);
  AugTree t;
  std::vector<std::unique_ptr<AugNode>> pool;
  std::vector<AugNode*> live;
  for (int i = 0; i < 400; ++i) {
    pool.push_back(std::make_unique<AugNode>(
        i, static_cast<int>(rng.uniform(0, 1000))));
    t.insert(pool.back().get());
    live.push_back(pool.back().get());
  }
  for (int step = 0; step < 4000; ++step) {
    if (rng.chance(0.9)) {
      AugNode* n = live[rng.index(live.size())];
      n->aux = static_cast<int>(rng.uniform(0, 1000));
      AugTree::refresh(n);
    } else if (rng.chance(0.5) || live.size() < 2) {
      pool.push_back(std::make_unique<AugNode>(
          static_cast<int>(rng.uniform(0, 400)),
          static_cast<int>(rng.uniform(0, 1000))));
      t.insert(pool.back().get());
      live.push_back(pool.back().get());
    } else {
      const auto i = rng.index(live.size());
      t.erase(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 37 == 0) {
      ASSERT_GE(t.validate(), 0) << "step " << step;
      ASSERT_TRUE(aug_exact(t.root())) << "step " << step;
    }
  }
  ASSERT_TRUE(aug_exact(t.root()));
}

TEST(RbTree, FloorLowerBoundWithDuplicates) {
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> nodes;
  for (int k : {10, 20, 20, 20, 30}) {
    nodes.push_back(std::make_unique<IntNode>(k));
    t.insert(nodes.back().get());
  }
  // lower_bound lands on the first 20 in in-order position.
  IntNode* lb = t.lower_bound(20, cmp_key);
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(lb->key, 20);
  EXPECT_EQ(IntTree::prev(lb)->key, 10);
  // floor(20) is the last 20.
  IntNode* fl = t.floor(20, cmp_key);
  ASSERT_NE(fl, nullptr);
  EXPECT_EQ(fl->key, 20);
  EXPECT_EQ(IntTree::next(fl)->key, 30);
  // Count the duplicates by walking.
  int dup = 0;
  for (IntNode* n = lb; n != nullptr && n->key == 20; n = IntTree::next(n)) {
    ++dup;
  }
  EXPECT_EQ(dup, 3);
}

TEST(RbTree, EraseAllDuplicatesOneByOne) {
  IntTree t;
  std::vector<std::unique_ptr<IntNode>> nodes;
  for (int i = 0; i < 50; ++i) {
    nodes.push_back(std::make_unique<IntNode>(7));
    t.insert(nodes.back().get());
  }
  for (auto& n : nodes) {
    t.erase(n.get());
    ASSERT_GE(t.validate(), 0);
  }
  EXPECT_TRUE(t.empty());
}

TEST(RbTreeProperty, SortedAndReverseInsertions) {
  for (const bool reverse : {false, true}) {
    IntTree t;
    std::vector<std::unique_ptr<IntNode>> pool;
    for (int i = 0; i < 1000; ++i) {
      const int k = reverse ? 1000 - i : i;
      pool.push_back(std::make_unique<IntNode>(k));
      t.insert(pool.back().get());
    }
    ASSERT_GE(t.validate(), 0);
    EXPECT_EQ(t.size(), 1000u);
    // Logarithmic height: a red-black tree of n nodes has black height
    // >= log2(n+1)/2; validate() returns black height.
    EXPECT_GE(t.validate(), 5);
  }
}

}  // namespace
}  // namespace fluxion::rbtree
