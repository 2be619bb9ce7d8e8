// Intrusive red-black tree with optional subtree augmentation.
//
// This is the substrate for Planner's one index (paper §4.1): the
// scheduled-point tree, keyed by time and augmented with the minimum
// in-use amount of each subtree, so that earliest-fit is one pruned
// descent (docs/planner.md).
//
// The tree is intrusive: elements embed RbNode by inheritance, the tree
// never allocates. Duplicate keys are allowed (a new equal key goes
// after the existing ones).
//
// Augmentation: if Traits defines `static void update(Node&)`, the tree
// invokes it to recompute a node's augmented data from its children after
// every structural change, bottom-up, so subtree summaries (e.g. minimum
// in-use amount) stay exact. CLRS-style insert/erase with local fixups at
// rotations plus a final leaf-to-root propagation pass keeps this
// O(log n). A node whose augmented source changes in place (its key
// unchanged) is fixed with refresh(), which needs an `update` that
// returns whether the summary changed.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>

namespace fluxion::rbtree {

enum class Color : unsigned char { red, black };

struct RbNode {
  RbNode* parent = nullptr;
  RbNode* left = nullptr;
  RbNode* right = nullptr;
  Color color = Color::red;

  bool linked() const noexcept {
    return parent != nullptr || left != nullptr || right != nullptr ||
           color == Color::black;
  }
  void unlink() noexcept {
    parent = left = right = nullptr;
    color = Color::red;
  }
};

template <typename Traits, typename Node>
concept Augmented = requires(Node& n) { Traits::update(n); };

/// Red-black tree of Node (which must derive from RbNode).
/// Traits must provide `static bool less(const Node&, const Node&)` and may
/// provide `static void update(Node&)` for augmentation.
template <typename Node, typename Traits>
class RbTree {
  static_assert(std::is_base_of_v<RbNode, Node>);

 public:
  RbTree() = default;
  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;

  bool empty() const noexcept { return root_ == nullptr; }
  std::size_t size() const noexcept { return size_; }

  Node* root() noexcept { return down(root_); }
  const Node* root() const noexcept { return down(root_); }

  /// Insert; duplicates permitted (a new equal key goes to the right
  /// subtree, preserving insertion order among equals in in-order walks).
  void insert(Node* z) {
    assert(z != nullptr && !z->linked());
    RbNode* y = nullptr;
    RbNode* x = root_;
    while (x != nullptr) {
      y = x;
      x = Traits::less(*down(z), *down(x)) ? x->left : x->right;
    }
    z->parent = y;
    if (y == nullptr) {
      root_ = z;
    } else if (Traits::less(*down(z), *down(y))) {
      y->left = z;
    } else {
      y->right = z;
    }
    z->left = z->right = nullptr;
    z->color = Color::red;
    if constexpr (Augmented<Traits, Node>) Traits::update(*down(z));
    insert_fixup(z);
    propagate(z->parent);
    ++size_;
  }

  /// Remove a node known to be in this tree. The node is unlinked and can
  /// be reinserted (possibly with a new key) afterwards.
  void erase(Node* zn) {
    assert(zn != nullptr);
    RbNode* z = zn;
    RbNode* y = z;
    RbNode* x = nullptr;
    RbNode* x_parent = nullptr;
    Color y_color = y->color;
    if (z->left == nullptr) {
      x = z->right;
      x_parent = z->parent;
      transplant(z, z->right);
    } else if (z->right == nullptr) {
      x = z->left;
      x_parent = z->parent;
      transplant(z, z->left);
    } else {
      y = minimum(z->right);
      y_color = y->color;
      x = y->right;
      if (y->parent == z) {
        x_parent = y;
      } else {
        x_parent = y->parent;
        transplant(y, y->right);
        y->right = z->right;
        y->right->parent = y;
      }
      transplant(z, y);
      y->left = z->left;
      y->left->parent = y;
      y->color = z->color;
      if constexpr (Augmented<Traits, Node>) Traits::update(*down(y));
    }
    if (y_color == Color::black) erase_fixup(x, x_parent);
    propagate(x_parent);
    zn->unlink();
    --size_;
  }

  Node* min() noexcept {
    return root_ == nullptr ? nullptr : down(minimum(root_));
  }
  Node* max() noexcept {
    return root_ == nullptr ? nullptr : down(maximum(root_));
  }
  const Node* min() const noexcept {
    return root_ == nullptr ? nullptr : down(minimum(root_));
  }
  const Node* max() const noexcept {
    return root_ == nullptr ? nullptr : down(maximum(root_));
  }

  /// In-order successor / predecessor; nullptr at the ends.
  static Node* next(Node* n) noexcept {
    RbNode* x = n;
    if (x->right != nullptr) return down(minimum(x->right));
    RbNode* y = x->parent;
    while (y != nullptr && x == y->right) {
      x = y;
      y = y->parent;
    }
    return down(y);
  }
  static Node* prev(Node* n) noexcept {
    RbNode* x = n;
    if (x->left != nullptr) return down(maximum(x->left));
    RbNode* y = x->parent;
    while (y != nullptr && x == y->left) {
      x = y;
      y = y->parent;
    }
    return down(y);
  }
  static const Node* next(const Node* n) noexcept {
    return next(const_cast<Node*>(n));
  }
  static const Node* prev(const Node* n) noexcept {
    return prev(const_cast<Node*>(n));
  }

  /// First node not-less-than probe under Less3(probe, node) -> int
  /// (<0 probe before node, 0 equal, >0 probe after node).
  template <typename Probe, typename Cmp>
  Node* lower_bound(const Probe& probe, Cmp cmp) noexcept {
    RbNode* x = root_;
    RbNode* best = nullptr;
    while (x != nullptr) {
      if (cmp(probe, *down(x)) <= 0) {
        best = x;
        x = x->left;
      } else {
        x = x->right;
      }
    }
    return down(best);
  }

  /// Last node whose key is <= probe; nullptr if none.
  template <typename Probe, typename Cmp>
  Node* floor(const Probe& probe, Cmp cmp) noexcept {
    RbNode* x = root_;
    RbNode* best = nullptr;
    while (x != nullptr) {
      if (cmp(probe, *down(x)) >= 0) {
        best = x;
        x = x->right;
      } else {
        x = x->left;
      }
    }
    return down(best);
  }

  /// Exact-match search; returns nullptr if absent (first match in key
  /// order if duplicated).
  template <typename Probe, typename Cmp>
  Node* find(const Probe& probe, Cmp cmp) noexcept {
    Node* n = lower_bound(probe, cmp);
    if (n != nullptr && cmp(probe, *n) == 0) return n;
    return nullptr;
  }

  /// Re-run `update` from `n` towards the root after n's augmented source
  /// data changed in place (key changes still require erase + insert).
  /// Stops at the first node whose summary comes out unchanged: nothing
  /// above it saw a changed input.
  static void refresh(Node* n) noexcept {
    static_assert(std::is_same_v<decltype(Traits::update(*n)), bool>,
                  "refresh needs an update that reports a change");
    for (RbNode* p = n; p != nullptr && Traits::update(*down(p));
         p = p->parent) {
    }
  }

  /// Validates red-black invariants and augmentation; returns black height
  /// or -1 on violation. Test hook — O(n).
  int validate() const {
    if (root_ == nullptr) return 0;
    if (root_->color != Color::black) return -1;
    return check(root_);
  }

 private:
  static Node* down(RbNode* n) noexcept { return static_cast<Node*>(n); }
  static const Node* down(const RbNode* n) noexcept {
    return static_cast<const Node*>(n);
  }

  /// Re-establish augmented data from `from` up to the root.
  void propagate(RbNode* from) noexcept {
    if constexpr (Augmented<Traits, Node>) {
      for (RbNode* p = from; p != nullptr; p = p->parent) {
        Traits::update(*down(p));
      }
    } else {
      (void)from;
    }
  }

  static RbNode* minimum(RbNode* x) noexcept {
    while (x->left != nullptr) x = x->left;
    return x;
  }
  static RbNode* maximum(RbNode* x) noexcept {
    while (x->right != nullptr) x = x->right;
    return x;
  }

  void rotate_left(RbNode* x) noexcept {
    RbNode* y = x->right;
    x->right = y->left;
    if (y->left != nullptr) y->left->parent = x;
    y->parent = x->parent;
    if (x->parent == nullptr) {
      root_ = y;
    } else if (x == x->parent->left) {
      x->parent->left = y;
    } else {
      x->parent->right = y;
    }
    y->left = x;
    x->parent = y;
    if constexpr (Augmented<Traits, Node>) {
      Traits::update(*down(x));
      Traits::update(*down(y));
    }
  }

  void rotate_right(RbNode* x) noexcept {
    RbNode* y = x->left;
    x->left = y->right;
    if (y->right != nullptr) y->right->parent = x;
    y->parent = x->parent;
    if (x->parent == nullptr) {
      root_ = y;
    } else if (x == x->parent->right) {
      x->parent->right = y;
    } else {
      x->parent->left = y;
    }
    y->right = x;
    x->parent = y;
    if constexpr (Augmented<Traits, Node>) {
      Traits::update(*down(x));
      Traits::update(*down(y));
    }
  }

  void insert_fixup(RbNode* z) noexcept {
    while (z->parent != nullptr && z->parent->color == Color::red) {
      RbNode* g = z->parent->parent;
      if (z->parent == g->left) {
        RbNode* u = g->right;
        if (u != nullptr && u->color == Color::red) {
          z->parent->color = Color::black;
          u->color = Color::black;
          g->color = Color::red;
          z = g;
        } else {
          if (z == z->parent->right) {
            z = z->parent;
            rotate_left(z);
          }
          z->parent->color = Color::black;
          g->color = Color::red;
          rotate_right(g);
        }
      } else {
        RbNode* u = g->left;
        if (u != nullptr && u->color == Color::red) {
          z->parent->color = Color::black;
          u->color = Color::black;
          g->color = Color::red;
          z = g;
        } else {
          if (z == z->parent->left) {
            z = z->parent;
            rotate_right(z);
          }
          z->parent->color = Color::black;
          g->color = Color::red;
          rotate_left(g);
        }
      }
    }
    root_->color = Color::black;
  }

  void transplant(RbNode* u, RbNode* v) noexcept {
    if (u->parent == nullptr) {
      root_ = v;
    } else if (u == u->parent->left) {
      u->parent->left = v;
    } else {
      u->parent->right = v;
    }
    if (v != nullptr) v->parent = u->parent;
  }

  void erase_fixup(RbNode* x, RbNode* x_parent) noexcept {
    while (x != root_ && (x == nullptr || x->color == Color::black)) {
      if (x == x_parent->left) {
        RbNode* w = x_parent->right;
        if (w->color == Color::red) {
          w->color = Color::black;
          x_parent->color = Color::red;
          rotate_left(x_parent);
          w = x_parent->right;
        }
        const bool wl_black = w->left == nullptr || w->left->color == Color::black;
        const bool wr_black =
            w->right == nullptr || w->right->color == Color::black;
        if (wl_black && wr_black) {
          w->color = Color::red;
          x = x_parent;
          x_parent = x->parent;
        } else {
          if (wr_black) {
            if (w->left != nullptr) w->left->color = Color::black;
            w->color = Color::red;
            rotate_right(w);
            w = x_parent->right;
          }
          w->color = x_parent->color;
          x_parent->color = Color::black;
          if (w->right != nullptr) w->right->color = Color::black;
          rotate_left(x_parent);
          x = root_;
          x_parent = nullptr;
        }
      } else {
        RbNode* w = x_parent->left;
        if (w->color == Color::red) {
          w->color = Color::black;
          x_parent->color = Color::red;
          rotate_right(x_parent);
          w = x_parent->left;
        }
        const bool wl_black = w->left == nullptr || w->left->color == Color::black;
        const bool wr_black =
            w->right == nullptr || w->right->color == Color::black;
        if (wl_black && wr_black) {
          w->color = Color::red;
          x = x_parent;
          x_parent = x->parent;
        } else {
          if (wl_black) {
            if (w->right != nullptr) w->right->color = Color::black;
            w->color = Color::red;
            rotate_left(w);
            w = x_parent->left;
          }
          w->color = x_parent->color;
          x_parent->color = Color::black;
          if (w->left != nullptr) w->left->color = Color::black;
          rotate_right(x_parent);
          x = root_;
          x_parent = nullptr;
        }
      }
    }
    if (x != nullptr) x->color = Color::black;
  }

  int check(const RbNode* n) const {
    if (n == nullptr) return 0;
    // Red nodes must have black children.
    if (n->color == Color::red) {
      if ((n->left != nullptr && n->left->color == Color::red) ||
          (n->right != nullptr && n->right->color == Color::red)) {
        return -1;
      }
    }
    if (n->left != nullptr &&
        (n->left->parent != n || Traits::less(*down(n), *down(n->left)))) {
      return -1;
    }
    if (n->right != nullptr &&
        (n->right->parent != n || Traits::less(*down(n->right), *down(n)))) {
      return -1;
    }
    const int lh = check(n->left);
    const int rh = check(n->right);
    if (lh < 0 || rh < 0 || lh != rh) return -1;
    return lh + (n->color == Color::black ? 1 : 0);
  }

  RbNode* root_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fluxion::rbtree
