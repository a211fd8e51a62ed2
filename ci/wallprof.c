/* wallprof: a sampling wall-clock profiler in one LD_PRELOAD shim, for a
 * container with no perf. Every 250 us of CLOCK_MONOTONIC a SIGPROF handler
 * walks the interrupted thread's frame pointers; at exit the raw stacks and
 * /proc/self/maps go to $PROF_OUT for ci/wallprof.py. x86-64 Linux, main
 * thread only; profile a binary built with -C force-frame-pointers=yes.
 *
 *   gcc -O2 -shared -fPIC -o wallprof.so ci/wallprof.c
 *
 * Built with -DWALLPROF_ALLOCS it samples allocations instead of time: the
 * stack of every 7th malloc / calloc / realloc call on the main thread, in
 * the same capture format, so a row's share is its share of allocations.
 *
 *   gcc -O2 -fno-omit-frame-pointer -DWALLPROF_ALLOCS -shared -fPIC \
 *       -o wallprof-allocs.so ci/wallprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

enum { MAX_DEPTH = 48, MAX_WORDS = 1 << 24 }; /* 128 MB of BSS, touched as filled */
static uint64_t words[MAX_WORDS];             /* records: depth, pc0 .. pc(depth-1) */
static size_t used;
static uintptr_t stack_lo, stack_hi;

/* Appends one stack: `pc`, then the return address of each frame from `fp`
 * up. A frame is [saved rbp][return address]; frames grow toward lower
 * addresses, so each saved rbp must lie above the one before it, and every
 * one on the main thread's stack. */
static void record(uintptr_t pc, uintptr_t fp) {
    if (used + MAX_DEPTH + 1 > MAX_WORDS) return;
    uint64_t *rec = &words[used], depth = 0;
    rec[++depth] = pc;
    while (depth < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        rec[++depth] = ((uintptr_t *)fp)[1];
        if (next <= fp) break;
        fp = next;
    }
    rec[0] = depth;
    used += depth + 1;
}

#ifdef WALLPROF_ALLOCS
void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);

static unsigned long calls;
static int sampling; /* set once the stack bounds are known, cleared at exit */

/* Every 7th call records the stack of the allocator's caller. Only the
 * main thread's frames lie within the stack bounds, so a call on another
 * thread is counted but never recorded. */
#define SAMPLE()                                                                            \
    do {                                                                                    \
        uintptr_t fp = (uintptr_t)__builtin_frame_address(0);                               \
        if (sampling && ++calls % 7 == 0 && fp >= stack_lo && fp < stack_hi)                \
            record((uintptr_t)__builtin_return_address(0), ((uintptr_t *)fp)[0]);           \
    } while (0)

void *malloc(size_t n) {
    SAMPLE();
    return __libc_malloc(n);
}

void *calloc(size_t n, size_t size) {
    SAMPLE();
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t n) {
    SAMPLE();
    return __libc_realloc(p, n);
}

static void begin(void) { sampling = 1; }
static void end(void) { sampling = 0; }
#else
static timer_t timer;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)uctx)->uc_mcontext.gregs;
    record((uintptr_t)regs[REG_RIP], (uintptr_t)regs[REG_RBP]);
}

static void begin(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, 250000}, {0, 250000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

static void end(void) { timer_delete(timer); }
#endif

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    if (!getenv("PROF_OUT") || !stack_hi) return;
    begin();
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("PROF_OUT");
    if (!path || !stack_hi) return;
    end();
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fputs("STACKS\n", out);
    for (size_t at = 0; at < used; at += words[at] + 1) {
        for (uint64_t i = 1; i <= words[at]; i++) fprintf(out, "%lx ", words[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}
