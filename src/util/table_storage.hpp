/// \file table_storage.hpp
/// \brief Fixed-size storage for the chains' large hash tables.
///
/// The dependency table's slots and the edge set's buckets are the two
/// arrays a superstep probes at random.  At m = 4M they take 512 MiB and
/// 128 MiB, far more than the TLB covers with 4 KiB pages.  TableStorage
/// gives a table of at least 2 MiB its own 2 MiB-aligned mapping with a
/// transparent-huge-page hint, and unmaps it when destroyed; a smaller
/// table stays on the heap.  Given a pool, the elements are constructed on
/// its threads, each thread its own contiguous range, so the page faults
/// and the kernel's zeroing of a large table run in parallel.
/// docs/hashing.md ("Table memory") has the measurements.
#pragma once

#include "parallel/thread_pool.hpp"

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace gesmc {

namespace detail {

/// Tables of at least this many bytes are mapped with a huge-page hint.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Storage for `bytes` bytes aligned to `align` (at most a page): mapped
/// memory on 2 MiB boundaries from kHugePageBytes up, the heap below.
/// Throws std::bad_alloc.
void* allocate_table(std::size_t bytes, std::size_t align);

/// Returns storage from allocate_table with the same bytes and align.
void release_table(void* data, std::size_t bytes, std::size_t align) noexcept;

} // namespace detail

template <typename T>
class TableStorage {
    static_assert(std::is_trivially_destructible_v<T>);

public:
    /// `n` elements, each constructed as T{args...}: on `pool`'s threads,
    /// each its own contiguous range, or by the caller when pool is null.
    template <typename... Args>
    TableStorage(std::size_t n, ThreadPool* pool, const Args&... args) : TableStorage(n) {
        const auto construct = [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i) {
                ::new (static_cast<void*>(data_ + i)) T{args...};
            }
        };
        if (pool == nullptr) {
            construct(0, 0, n);
        } else {
            pool->for_chunks(0, n, construct);
        }
    }

    ~TableStorage() { detail::release_table(data_, size_ * sizeof(T), alignof(T)); }

    TableStorage(const TableStorage&) = delete;
    TableStorage& operator=(const TableStorage&) = delete;
    TableStorage(TableStorage&&) = delete;
    TableStorage& operator=(TableStorage&&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] const T* begin() const noexcept { return data_; }
    [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

private:
    /// Allocates without constructing; the public constructor delegates
    /// here, so its destructor runs if construction throws.
    explicit TableStorage(std::size_t n)
        : data_(static_cast<T*>(detail::allocate_table(checked_bytes(n), alignof(T)))),
          size_(n) {}

    static std::size_t checked_bytes(std::size_t n) {
        if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_array_new_length();
        return n * sizeof(T);
    }

    T* data_;
    std::size_t size_;
};

} // namespace gesmc
