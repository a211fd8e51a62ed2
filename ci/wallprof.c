/* wallprof: a sampling wall-clock profiler in one LD_PRELOAD shim, for a
 * container with no perf. Every 250 us of CLOCK_MONOTONIC a SIGPROF handler
 * walks the interrupted thread's frame pointers; at exit the raw stacks and
 * /proc/self/maps go to $PROF_OUT for ci/wallprof.py. x86-64 Linux, main
 * thread only; profile a binary built with -C force-frame-pointers=yes.
 *
 *   gcc -O2 -shared -fPIC -o wallprof.so ci/wallprof.c
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
static timer_t timer;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)uctx)->uc_mcontext.gregs;
    if (used + MAX_DEPTH + 1 > MAX_WORDS) return;
    uint64_t *rec = &words[used], depth = 0;
    rec[++depth] = (uint64_t)regs[REG_RIP];
    uintptr_t fp = (uintptr_t)regs[REG_RBP];
    /* A frame is [saved rbp][return address]; frames grow toward lower
     * addresses, so each saved rbp must lie above the one before it. */
    while (depth < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        rec[++depth] = ((uintptr_t *)fp)[1];
        if (next <= fp) break;
        fp = next;
    }
    rec[0] = depth;
    used += depth + 1;
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    if (!getenv("PROF_OUT") || !stack_hi) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, 250000}, {0, 250000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("PROF_OUT");
    if (!path || !stack_hi) return;
    timer_delete(timer);
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
