// A table of immutable values shared by their live users.
//
// Some simulation inputs (the Fig. 10 reference genome and its seed index,
// the Fig. 11 RMAT graph) are costly to build, read-only once built, and a
// pure function of a small key. An InternTable hands every caller that
// asks for a key while an earlier result is still held that same object,
// and builds a fresh one only when no user holds the last. It keeps weak
// references only, so an entry lives exactly as long as its users: nothing
// outlives them, and two independent runs each build their own value.
// Because each value is a pure function of its complete key, which build
// a caller receives cannot change a result.
//
// Thread safety: acquire may be called concurrently. The build runs under
// the table's lock, so concurrent acquires of one key build it exactly
// once; acquires of other keys wait for it.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>

namespace impact::util {

template <class Key, class T>
class InternTable {
 public:
  /// The live value for `key`, or the result of `build()` (returning a T)
  /// when no user holds one.
  template <class Build>
  [[nodiscard]] std::shared_ptr<const T> acquire(const Key& key,
                                                 Build&& build) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      if (std::shared_ptr<const T> live = it->second.lock()) return live;
    }
    std::erase_if(entries_,
                  [](const auto& entry) { return entry.second.expired(); });
    std::shared_ptr<const T> built = std::make_shared<const T>(build());
    entries_.insert_or_assign(key, built);
    ++builds_;
    return built;
  }

  /// Values built so far (a test hook: sharing shows as builds not made).
  [[nodiscard]] std::size_t builds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return builds_;
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, std::weak_ptr<const T>> entries_;
  std::size_t builds_ = 0;
};

}  // namespace impact::util
