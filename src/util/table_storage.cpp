#include "util/table_storage.hpp"

#include <sys/mman.h>

namespace gesmc::detail {

namespace {

/// The mapped length: whole huge pages.
std::size_t mapped_bytes(std::size_t bytes) noexcept {
    return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

} // namespace

void* allocate_table(std::size_t bytes, std::size_t align) {
    if (bytes < kHugePageBytes) return ::operator new(bytes, std::align_val_t{align});
    // The kernel backs only 2 MiB-aligned ranges with huge pages: map one
    // huge page more than needed, then unmap the slack on both sides.
    const std::size_t length = mapped_bytes(bytes);
    void* raw = mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const std::size_t misalign = reinterpret_cast<std::uintptr_t>(raw) % kHugePageBytes;
    const std::size_t head = misalign == 0 ? 0 : kHugePageBytes - misalign;
    char* table = static_cast<char*>(raw) + head;
    if (head > 0) munmap(raw, head);
    munmap(table + length, kHugePageBytes - head);
    // A hint only: where THP is off ("never", or no kernel support) the
    // call fails or is ignored and the table lives on 4 KiB pages.
    (void)madvise(table, length, MADV_HUGEPAGE);
    return table;
}

void release_table(void* data, std::size_t bytes, std::size_t align) noexcept {
    if (bytes < kHugePageBytes) {
        ::operator delete(data, std::align_val_t{align});
    } else {
        munmap(data, mapped_bytes(bytes));
    }
}

} // namespace gesmc::detail
