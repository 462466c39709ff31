// Heap profiler: an LD_PRELOAD library that replaces the global operator
// new and delete, keeps live bytes per allocation stack, snapshots that
// table at the live-byte peak, and writes the snapshot when the program
// exits. Nothing in the tree links it.
//
//   LD_PRELOAD=build/libheap_profile.so ./build/quickstart
//   python3 tools/heap_profile.py heap_profile.<pid>.txt
//
// The dump lands in the working directory as heap_profile.<pid>.txt.
// Each frame is written as a module and an offset (via dladdr), so a PIE
// or LTO binary symbolizes as well as any other; tools/heap_profile.py
// runs addr2line over it and groups the stacks by their first qanaat::
// frame.
//
// What it counts: bytes requested through the replaceable operator new
// (plain, array, nothrow), without malloc's chunk overhead. malloc
// callers and over-aligned news, which libstdc++ serves with
// aligned_alloc, are not seen. Every block carries a 16-byte header
// naming its stack, so delete credits the bytes back to it. The peak
// snapshot is retaken whenever live bytes pass the last one by 1/128
// (and 64 KiB), so it lies within that margin below the exact peak,
// which the dump also reports.

#include <dlfcn.h>
#include <errno.h>  // program_invocation_name
#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

constexpr int kDepth = 24;                      // frames kept per stack
constexpr uint32_t kSlots = uint32_t{1} << 16;  // distinct stacks
constexpr uint32_t kOverflow = kSlots;          // stacks past a full table
constexpr uint32_t kMagic = 0x46525048;         // "HPRF"

// Zero-initialized like all the state below, as static storage is.
struct Stack {
  uint64_t hash;  // 0: free slot
  int depth;
  void* frames[kDepth];
  int64_t live_bytes;
  int64_t live_blocks;
  int64_t snap_bytes;  // at the last peak snapshot
  int64_t snap_blocks;
};

// Sits in front of every block; 16 bytes keep malloc's alignment.
struct Header {
  uint64_t size;
  uint32_t stack;
  uint32_t magic;
};
static_assert(sizeof(Header) == 16, "header must keep 16-byte alignment");

// Plain static storage: usable from the first operator new, before any
// constructor of this library has run, and never destroyed.
Stack g_stacks[kSlots + 1];
uint32_t g_used[kSlots + 1];
uint32_t g_used_count = 0;
int64_t g_live = 0;
int64_t g_peak = 0;
int64_t g_snap_live = 0;
int64_t g_next_snap = 0;
uint64_t g_news = 0;
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
// Set while this thread takes a backtrace, which may allocate.
__attribute__((tls_model("initial-exec"))) thread_local bool t_inside;

void Lock() {
  while (g_lock.test_and_set(std::memory_order_acquire)) continue;
}
void Unlock() { g_lock.clear(std::memory_order_release); }

uint64_t HashFrames(void* const* frames, int n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < n; ++i) {
    h = (h ^ reinterpret_cast<uintptr_t>(frames[i])) * 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;
}

// The slot that collects allocations without a stack of their own.
uint32_t OverflowSlot() {
  if (g_stacks[kOverflow].hash == 0) {
    g_stacks[kOverflow].hash = 1;
    g_used[g_used_count++] = kOverflow;
  }
  return kOverflow;
}

// Slot of the stack `frames`, added if new. Called under the lock.
uint32_t Intern(void* const* frames, int n) {
  uint64_t h = HashFrames(frames, n);
  for (uint32_t probe = 0, i = static_cast<uint32_t>(h) & (kSlots - 1);
       probe < kSlots; ++probe, i = (i + 1) & (kSlots - 1)) {
    Stack& s = g_stacks[i];
    if (s.hash == 0) {
      s.hash = h;
      s.depth = n;
      std::memcpy(s.frames, frames, sizeof(void*) * n);
      g_used[g_used_count++] = i;
      return i;
    }
    if (s.hash == h && s.depth == n &&
        std::memcmp(s.frames, frames, sizeof(void*) * n) == 0) {
      return i;
    }
  }
  return OverflowSlot();
}

void Snapshot() {
  for (uint32_t k = 0; k < g_used_count; ++k) {
    Stack& s = g_stacks[g_used[k]];
    s.snap_bytes = s.live_bytes;
    s.snap_blocks = s.live_blocks;
  }
  g_snap_live = g_live;
  g_next_snap = g_live + g_live / 128 + (int64_t{1} << 16);
}

void* Allocate(size_t size, bool nothrow) {
  void* base = nullptr;
  if (size <= SIZE_MAX - sizeof(Header)) {
    base = std::malloc(sizeof(Header) + size);
  }
  if (base == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  auto* h = static_cast<Header*>(base);
  h->size = size;
  h->magic = kMagic;
  if (!t_inside) {
    t_inside = true;
    void* frames[kDepth];
    int n = backtrace(frames, kDepth);
    Lock();
    h->stack = Intern(frames, n);
    t_inside = false;
  } else {
    Lock();
    h->stack = OverflowSlot();
  }
  Stack& s = g_stacks[h->stack];
  s.live_bytes += static_cast<int64_t>(size);
  s.live_blocks += 1;
  g_live += static_cast<int64_t>(size);
  ++g_news;
  if (g_live > g_peak) {
    g_peak = g_live;
    if (g_live >= g_next_snap) Snapshot();
  }
  Unlock();
  return h + 1;
}

void Release(void* p) {
  if (p == nullptr) return;
  Header* h = static_cast<Header*>(p) - 1;
  if (h->magic != kMagic) {
    // Not from this library's operator new; nothing to credit.
    std::free(p);
    return;
  }
  h->magic = 0;
  Lock();
  Stack& s = g_stacks[h->stack];
  s.live_bytes -= static_cast<int64_t>(h->size);
  s.live_blocks -= 1;
  g_live -= static_cast<int64_t>(h->size);
  Unlock();
  std::free(h);
}

// Module table for the dump: dladdr's file name and load base per
// distinct module.
struct Module {
  const char* path;
  uintptr_t base;
};
constexpr int kMaxModules = 256;
Module g_modules[kMaxModules];
int g_module_count = 0;

int ModuleOf(const Dl_info& info) {
  auto base = reinterpret_cast<uintptr_t>(info.dli_fbase);
  for (int i = 0; i < g_module_count; ++i) {
    if (g_modules[i].base == base) return i;
  }
  if (g_module_count == kMaxModules) return -1;
  g_modules[g_module_count] = Module{info.dli_fname, base};
  return g_module_count++;
}

// The main program's dladdr name is argv[0]: relative, or a bare name
// found on PATH, and the program may have changed directory since.
// /proc/self/exe names its file.
void WriteModulePath(FILE* out, const char* path) {
  char exe[PATH_MAX];
  if (path != nullptr && std::strcmp(path, program_invocation_name) == 0) {
    ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
      exe[n] = '\0';
      path = exe;
    }
  }
  std::fprintf(out, "%s", path == nullptr ? "?" : path);
}

__attribute__((destructor)) void WriteProfile() {
  Lock();
  char name[64];
  std::snprintf(name, sizeof(name), "heap_profile.%d.txt",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(name, "w");
  if (out == nullptr) {
    Unlock();
    return;
  }
  std::fprintf(out, "# heap_profile v1\n");
  std::fprintf(out, "peak_live_bytes %lld\n", static_cast<long long>(g_peak));
  std::fprintf(out, "snapshot_live_bytes %lld\n",
               static_cast<long long>(g_snap_live));
  std::fprintf(out, "news %llu\n", static_cast<unsigned long long>(g_news));
  // stack <bytes> <blocks> <module>:<offset> ... (live at the snapshot)
  for (uint32_t k = 0; k < g_used_count; ++k) {
    const Stack& s = g_stacks[g_used[k]];
    if (s.snap_bytes <= 0) continue;
    std::fprintf(out, "stack %lld %lld", static_cast<long long>(s.snap_bytes),
                 static_cast<long long>(s.snap_blocks));
    for (int f = 0; f < s.depth; ++f) {
      Dl_info info;
      int m = -1;
      if (dladdr(s.frames[f], &info) != 0) m = ModuleOf(info);
      if (m < 0) {
        std::fprintf(out, " ?");
        continue;
      }
      uintptr_t pc = reinterpret_cast<uintptr_t>(s.frames[f]);
      unsigned long long offset = pc - g_modules[m].base;
      std::fprintf(out, " %d:%llx", m, offset);
    }
    std::fprintf(out, "\n");
  }
  // module <id> <load base> <path>
  for (int i = 0; i < g_module_count; ++i) {
    std::fprintf(out, "module %d %llx ", i,
                 static_cast<unsigned long long>(g_modules[i].base));
    WriteModulePath(out, g_modules[i].path);
    std::fprintf(out, "\n");
  }
  std::fclose(out);
  Unlock();
}

}  // namespace

void* operator new(size_t size) { return Allocate(size, false); }
void* operator new[](size_t size) { return Allocate(size, false); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, true);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, true);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
