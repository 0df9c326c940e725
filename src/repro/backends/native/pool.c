/* A fork-join pool of helper threads for the kernels that split their rows
 * into segments: cgs2_project and bcgs2_project (dense.c) and dia_spmm
 * (dia.c).
 *
 * pool_run(count, task, arg) runs task(arg, s) once for every segment
 * s < count and returns when all of them have run.  The calling thread
 * works through the segments itself; idle helpers claim the rest through
 * one atomic word, so a call never waits on a segment that nobody has
 * claimed, only on segments a helper is already running.  A call that
 * finds the pool held by another thread, a process with one CPU, and a
 * single segment all run every segment in the caller.  Which thread runs
 * a segment never changes a bit of a result: a segment writes its own
 * rows, or its own partial sums, which the kernels add in segment order.
 *
 * The pool starts on the first call that splits, with one helper per CPU
 * of the process's affinity mask beyond the caller's.  After its last
 * segment a helper spins for POOL_SPIN_NS, because the solvers call the
 * kernels back to back, and then sleeps on a condition variable.  A
 * helper that a call finds on its caller's CPU moves itself to the mask's
 * other CPUs (pool_step_aside) before it claims a segment, so the two do
 * not take turns on one CPU.  A child made by fork() inherits no
 * helpers: a pthread_atfork handler resets the pool there, and the
 * child's first call that splits starts its own.
 */

#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <time.h>

/* Called from dense.c and dia.c, not exported from the library. */
#define POOL_API __attribute__((visibility("hidden")))

/* Rows per segment: a multiple of every row tile of the kernels. */
#define POOL_SEGMENT 8192
/* Most segments one call hands out: what the word's fields hold. */
#define POOL_MAX_SEGMENTS 0xffff
/* Most helpers a many-core host starts: a call has few segments to share. */
#define POOL_MAX_HELPERS 63
/* How long an idle helper spins before it sleeps. */
#define POOL_SPIN_NS 200000
/* A helper's stack: a segment needs a row tile of scratch at most. */
#define POOL_STACK (256 * 1024)

typedef void (*pool_task)(void *arg, int64_t segment);

/* The call in progress is the word: generation << 32 | front << 16 |
 * back, where segments [front, back) are the ones nobody has claimed.
 * The caller claims from the front and the helpers from the back, so with
 * two CPUs each thread sweeps the same rows on every call and finds them
 * in its own cache.  A claim moves front or back with a compare-and-swap,
 * which fails if the call has changed, so a late helper never runs a
 * segment of a finished call. */
static struct {
    _Atomic uint64_t word;
    _Atomic int64_t pending; /* segments of the call not yet run */
    atomic_int busy;         /* a call holds the pool */
    pool_task task;
    void *arg;
    atomic_int caller_cpu;   /* the CPU the call's caller last ran on */
    int helpers;
    int started; /* the helpers of this process have started */
    cpu_set_t cpus; /* the process's affinity mask when the helpers started */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} pool = {.lock = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER};

static inline uint32_t pool_generation(uint64_t word) { return (uint32_t)(word >> 32); }

static inline void pool_pause(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* Claim and run segments of call `generation`, from the back or the
 * front, until none is left. */
static void pool_work(uint32_t generation, int from_back)
{
    uint64_t word = atomic_load_explicit(&pool.word, memory_order_acquire);
    while (pool_generation(word) == generation && (word >> 16 & 0xffff) < (word & 0xffff)) {
        const uint64_t claimed = from_back ? word - 1 : word + (1 << 16);
        if (atomic_compare_exchange_weak_explicit(&pool.word, &word, claimed,
                                                  memory_order_acq_rel,
                                                  memory_order_acquire)) {
            pool.task(pool.arg, (int64_t)(from_back ? claimed & 0xffff : word >> 16 & 0xffff));
            atomic_fetch_sub_explicit(&pool.pending, 1, memory_order_release);
            word = atomic_load_explicit(&pool.word, memory_order_acquire);
        }
    }
}

static int64_t pool_elapsed_ns(const struct timespec *since)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (int64_t)(now.tv_sec - since->tv_sec) * 1000000000 + (now.tv_nsec - since->tv_nsec);
}

/* The word of the first call after generation `seen`: spin for
 * POOL_SPIN_NS, then sleep until a call wakes the helpers. */
static uint64_t pool_wait(uint32_t seen)
{
    struct timespec start;
    uint64_t word;
    clock_gettime(CLOCK_MONOTONIC, &start);
    for (unsigned spin = 1;; ++spin) {
        word = atomic_load_explicit(&pool.word, memory_order_acquire);
        if (pool_generation(word) != seen)
            return word;
        pool_pause();
        if (spin % 256 == 0 && pool_elapsed_ns(&start) >= POOL_SPIN_NS)
            break;
    }
    pthread_mutex_lock(&pool.lock);
    while (pool_generation(word = atomic_load(&pool.word)) == seen)
        pthread_cond_wait(&pool.wake, &pool.lock);
    pthread_mutex_unlock(&pool.lock);
    return word;
}

/* A helper woken onto the CPU of the call's caller would share it with
 * the caller and take turns with it instead of running beside it, until
 * the scheduler moves one of them, which may take the whole call.  Such
 * a helper restricts itself to the other CPUs of the mask, which moves it
 * at once; a later call that finds it on the caller's CPU again moves it
 * again. */
static void pool_step_aside(void)
{
    const int caller = atomic_load_explicit(&pool.caller_cpu, memory_order_relaxed);
    if (caller < 0 || caller >= CPU_SETSIZE || sched_getcpu() != caller)
        return;
    cpu_set_t others = pool.cpus;
    CPU_CLR(caller, &others);
    if (CPU_COUNT(&others) > 0)
        sched_setaffinity(0, sizeof others, &others);
}

static void *pool_helper(void *seen)
{
    uint32_t generation = (uint32_t)(uintptr_t)seen;
    for (;;) {
        generation = pool_generation(pool_wait(generation));
        pool_step_aside();
        pool_work(generation, 1);
    }
    return NULL;
}

/* In a child of fork(), which has the caller's thread only: no helpers,
 * an unheld pool, and no call to claim segments of. */
static void pool_reset_in_child(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
    atomic_store(&pool.word, (uint64_t)(pool_generation(atomic_load(&pool.word)) + 1) << 32);
    atomic_store(&pool.pending, 0);
    atomic_store(&pool.busy, 0);
    pool.helpers = 0;
    pool.started = 0;
}

static void pool_register_fork_handler(void)
{
    pthread_atfork(NULL, NULL, pool_reset_in_child);
}

/* Start one helper per CPU of the affinity mask beyond the caller's, with
 * every signal blocked, so that signals go to the process's own threads. */
static void pool_start(void)
{
    static pthread_once_t once = PTHREAD_ONCE_INIT;
    pthread_attr_t attr;
    sigset_t all, old;
    cpu_set_t cpus;
    int want = 0;

    pthread_once(&once, pool_register_fork_handler);
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
        want = CPU_COUNT(&cpus) - 1;
    pool.cpus = cpus;
    if (want > POOL_MAX_HELPERS)
        want = POOL_MAX_HELPERS;
    const uintptr_t seen = pool_generation(atomic_load(&pool.word));
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    pthread_attr_setstacksize(&attr, POOL_STACK);
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (pool.helpers = 0; pool.helpers < want; ++pool.helpers) {
        pthread_t thread;
        if (pthread_create(&thread, &attr, pool_helper, (void *)seen))
            break;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    pool.started = 1;
}

/* How many segments rows [0, n) split into, at most `most`: n / POOL_SEGMENT
 * of them (at least one), each but the last *length rows, a multiple of
 * `align` (a divisor of POOL_SEGMENT), and the last the rest.  Depends on
 * its arguments only. */
POOL_API int64_t pool_segments(int64_t n, int64_t most, int64_t align, int64_t *length)
{
    int64_t count = n / POOL_SEGMENT;
    if (count > most)
        count = most;
    if (count > POOL_MAX_SEGMENTS)
        count = POOL_MAX_SEGMENTS;
    if (count < 2) {
        *length = n;
        return 1;
    }
    *length = n / count / align * align;
    return count;
}

/* task(arg, s) for every s < count (at most POOL_MAX_SEGMENTS), each once,
 * on the caller and any idle helpers; returns when all have run. */
POOL_API void pool_run(int64_t count, pool_task task, void *arg)
{
    if (count > 1 && count <= POOL_MAX_SEGMENTS &&
        !atomic_exchange_explicit(&pool.busy, 1, memory_order_acquire)) {
        if (!pool.started)
            pool_start();
        if (pool.helpers > 0) {
            const uint32_t generation = pool_generation(atomic_load(&pool.word)) + 1;
            pool.task = task;
            pool.arg = arg;
            atomic_store_explicit(&pool.caller_cpu, sched_getcpu(), memory_order_relaxed);
            atomic_store_explicit(&pool.pending, count, memory_order_relaxed);
            pthread_mutex_lock(&pool.lock);
            atomic_store_explicit(&pool.word, (uint64_t)generation << 32 | (uint64_t)count,
                                  memory_order_release);
            pthread_cond_broadcast(&pool.wake);
            pthread_mutex_unlock(&pool.lock);
            pool_work(generation, 0);
            /* Only segments that helpers are running are left. */
            for (unsigned spin = 1;
                 atomic_load_explicit(&pool.pending, memory_order_acquire) > 0; ++spin) {
                if (spin % 64)
                    pool_pause();
                else
                    sched_yield();
            }
            atomic_store_explicit(&pool.busy, 0, memory_order_release);
            return;
        }
        atomic_store_explicit(&pool.busy, 0, memory_order_release);
    }
    for (int64_t s = 0; s < count; ++s)
        task(arg, s);
}
