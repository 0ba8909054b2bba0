#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mahimahi::util {

/// Move-only `void()` callable with inline small-buffer storage: a callable
/// of at most `Capacity` bytes (and at most max_align_t alignment) is
/// stored inside the object itself — no heap allocation on construction,
/// move, or destruction. Larger callables transparently fall back to a
/// heap box. This is the EventLoop's callback type; the capacity is chosen
/// there (see EventLoop::kInlineActionBytes).
template <std::size_t Capacity>
class InlineCallback {
  static_assert(Capacity >= sizeof(void*), "capacity must hold a pointer");

 public:
  /// True when callables of type F are stored inline (no allocation).
  /// Inline relocation runs the move constructor inside noexcept move
  /// ops, so types with a potentially-throwing move are boxed instead —
  /// a boxed relocate is a pointer copy and genuinely cannot throw.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Construct a callable directly in this object's storage, destroying
  /// any previous one — lets hot paths skip a move through a temporary.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<F>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroy the held callable (and release its resources) immediately.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {  // elided for trivially-destructible
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the callable from `from` into `to`, then destroy the
    /// source — a destructive relocate, so moved-from objects hold nothing.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* from, void* to) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*f));
        f->~Fn();
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kBoxedOps{
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](void* from, void* to) {
        ::new (to) Fn*(*std::launder(reinterpret_cast<Fn**>(from)));
      },
      [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); }};

  void move_from(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_{nullptr};
};

}  // namespace mahimahi::util
