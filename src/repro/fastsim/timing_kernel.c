/* Native timing kernel: the batched-event cycle model of FastTimingSim.
 *
 * Cycle-for-cycle equivalent to repro.sim.pipeline.TimingSim (default
 * configuration: no wrong-path modeling, no observer).  Its Python
 * front end, repro/fastsim/timing.py, packs the decode-once tables,
 * feeds trace batches and turns status codes back into exceptions.
 *
 * In-flight instructions live in a ring indexed by age (dispatch order),
 * so the reorder buffer is just [head, step_no).  A slot is only reused
 * by dispatch, which is gated while the redirect/fence entry it might
 * still be referenced as is unresolved, and nothing else refers to a
 * committed entry.
 *
 * Issue is event driven: an entry is filed in a min-heap keyed
 * (cycle, age) exactly once, under the cycle it becomes issuable.  Each
 * cycle pops its key in age order and applies the unit caps; a blocked
 * entry is re-filed under the next cycle, where it merges with that
 * cycle's events in age order, as the reference's per-queue rescans see
 * it.  While fetch is gated (mispredict recovery, fence drain, icache
 * refill) or the trace is exhausted, the loop jumps to the next event,
 * retiring commits at reference pacing and bulk-adding the per-cycle
 * stall and queue-full counters of the skipped span.
 *
 * tk_run() returns TK_NEED_BATCH exactly where the reference model pulls
 * its next trace entry; the caller answers with tk_set_batch() or
 * tk_end_of_trace() and calls tk_run() again, which resumes mid-cycle.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TK_DONE 0
#define TK_NEED_BATCH 1
#define TK_UNMODELED 2
#define TK_NO_CONVERGE 3
#define TK_BTB_EMPTY 4

/* Per-PC flag bits (repro.fastsim.decode). */
#define F_BRANCH 1
#define F_LIKELY 2
#define F_JRJALR 8
#define F_FENCE 16
#define F_MEM 32
#define F_UNMODELED 128
#define F_BTB 512

/* Per-PC meta record: TK_META_STRIDE int32 fields. */
#define M_FLAGS 0
#define M_LINE 1
#define M_QUEUE 2
#define M_RENAME 3
#define M_UNIT 4
#define M_DEF 5
#define M_LAT 6
#define M_USE_OFF 7
#define M_USE_N 8
#define TK_META_STRIDE 9

/* Config vector (int64) indices. */
enum {
    P_COMMIT_W, P_DISPATCH_W, P_ROB, P_Q0, P_Q1, P_Q2, P_Q3,
    P_U0, P_U1, P_U2, P_U3, P_U4, P_U5, P_U6,
    P_RECOVERY, P_FENCE_STALL, P_MISS, P_FREE_INT, P_FREE_FP,
    P_LINE_SHIFT, P_ISETS, P_DSETS, P_ASSOC,
    P_PREDICTOR, P_BHT, P_BTB, P_NPC, TK_NPARAMS
};

/* Result vector (int64) indices. */
enum {
    R_CYCLES, R_COMMITTED, R_ANNULLED, R_FETCH_STALL, R_ICACHE_STALL,
    R_MISPREDICTS, R_INDIRECT, R_FENCE_STALL, R_FENCE_EVENTS,
    R_QFULL, R_UFULL = R_QFULL + 4, R_UISSUES = R_UFULL + 7,
    R_IACC = R_UISSUES + 7, R_IMISS, R_DACC, R_DMISS,
    R_P_CONDITIONAL, R_P_CORRECT, R_P_MISPREDICTED, R_P_LIKELY,
    R_P_LIKELY_CORRECT, R_P_BTB_MISSES, R_P_INDIRECT,
    R_ERROR_PC, TK_NRESULTS
};

enum { PRED_TWOBIT, PRED_TWOLEVEL, PRED_PERFECT, PRED_STATIC_TAKEN };
enum { RS_INIT, RS_LOOP, RS_DISPATCH_TOP, RS_DISPATCH_END };

#define NONE (-1)
#define NEVER ((int64_t)1 << 62)
#define CYCLE_GUARD ((int64_t)10000000000LL)
#define HIST_BITS 4

typedef struct {
    int64_t complete;   /* NONE until issued */
    int64_t rdy;        /* max producer completion cycle */
    int64_t addr;       /* dcache address, -1 none */
    int64_t age;
    int32_t pc;
    int32_t pend;       /* waiter edges on unissued producers */
    int32_t waiters;    /* head of the waiter edge list, -1 none */
    int32_t def;
    uint8_t ann, unit, rename, queue;
} tk_entry;

typedef struct { int64_t key, age; } tk_event;

/* Scalar state that tk_run keeps in locals between suspensions. */
#define TK_STATE(X) \
    X(int64_t, cycle) X(int64_t, head) X(int64_t, step_no) \
    X(int64_t, fpdiv_busy) X(int64_t, redirect) X(int64_t, fence) \
    X(int64_t, fetch_resume) X(int64_t, cur_line) \
    X(int64_t, free_int) X(int64_t, free_fp) \
    X(int64_t, di) X(int64_t, bi) X(int64_t, mi) X(int64_t, ai) \
    X(int64_t, nidx) X(int64_t, nann) X(int64_t, next_ann) \
    X(int, exhausted) X(int, slot) X(int, stall)

typedef struct tk_sim {
    int64_t p[TK_NPARAMS];
    int64_t r[TK_NRESULTS];
    const int32_t *meta;
    const int32_t *uses;
    int resume;
#define X_FIELD(t, n) t n;
    TK_STATE(X_FIELD)
#undef X_FIELD
    /* current batch */
    const int32_t *idxs;
    const int8_t *brs;
    const int64_t *mems;
    const int64_t *anns;
    /* in-flight entries */
    tk_entry *ents;
    int64_t mask;
    int64_t producer[72];
    /* waiter edges: a free list over a pool sized for the worst case,
     * every in-flight entry waiting on all its uses plus (a fence) on
     * every other in-flight entry */
    int32_t *edge_next, *edge_slot;
    int32_t edge_free;
    tk_event *heap;           /* unissued entries: at most one each */
    int64_t nheap;
    int64_t qlen[4];
    /* caches: per set, tags in LRU order (MRU last) */
    int64_t *itags, *dtags;
    int32_t *ifill, *dfill;
    /* predictor */
    uint8_t *bht;             /* twobit: [bht]; twolevel: [bht << 4] */
    uint8_t *hist;            /* twolevel per-slot history */
    uint8_t *in_btb;          /* per pc */
    int32_t *btb_fifo;        /* insertion order ring */
    int64_t btb_head, btb_n;
} tk_sim;

void tk_free(tk_sim *S)
{
    if (!S)
        return;
    free(S->ents); free(S->edge_next); free(S->edge_slot); free(S->heap);
    free(S->itags); free(S->dtags); free(S->ifill); free(S->dfill);
    free(S->bht); free(S->hist); free(S->in_btb); free(S->btb_fifo);
    free(S);
}

tk_sim *tk_new(const int64_t *params, const int32_t *meta,
               const int32_t *uses)
{
    tk_sim *S = calloc(1, sizeof(tk_sim));
    int64_t cap = 1, i, assoc, bht_n, max_uses = 0, edges;
    if (!S)
        return NULL;
    memcpy(S->p, params, sizeof(S->p));
    S->meta = meta;
    S->uses = uses;
    while (cap < S->p[P_ROB])
        cap <<= 1;
    for (i = 0; i < S->p[P_NPC]; i++)
        if (meta[i * TK_META_STRIDE + M_USE_N] > max_uses)
            max_uses = meta[i * TK_META_STRIDE + M_USE_N];
    edges = cap * (max_uses + cap);
    S->mask = cap - 1;
    assoc = S->p[P_ASSOC];
    bht_n = S->p[P_PREDICTOR] == PRED_TWOLEVEL
        ? S->p[P_BHT] << HIST_BITS : S->p[P_BHT];
    S->ents = calloc(cap, sizeof(tk_entry));
    S->heap = malloc(cap * sizeof(tk_event));
    S->edge_next = malloc(edges * sizeof(int32_t));
    S->edge_slot = malloc(edges * sizeof(int32_t));
    S->itags = malloc(S->p[P_ISETS] * assoc * sizeof(int64_t));
    S->dtags = malloc(S->p[P_DSETS] * assoc * sizeof(int64_t));
    S->ifill = calloc(S->p[P_ISETS], sizeof(int32_t));
    S->dfill = calloc(S->p[P_DSETS], sizeof(int32_t));
    S->bht = malloc(bht_n > 0 ? bht_n : 1);
    S->hist = calloc(S->p[P_BHT] > 0 ? S->p[P_BHT] : 1, 1);
    S->in_btb = calloc(S->p[P_NPC], 1);
    S->btb_fifo = malloc((S->p[P_BTB] > 0 ? S->p[P_BTB] : 1)
                         * sizeof(int32_t));
    if (!S->ents || !S->heap || !S->edge_next || !S->edge_slot
            || !S->itags || !S->dtags || !S->ifill || !S->dfill
            || !S->bht || !S->hist || !S->in_btb || !S->btb_fifo) {
        tk_free(S);
        return NULL;
    }
    /* counters start weakly not-taken */
    memset(S->bht, 1, bht_n > 0 ? bht_n : 1);
    for (i = 0; i < edges; i++)
        S->edge_next[i] = (int32_t)(i + 1 < edges ? i + 1 : -1);
    S->edge_free = 0;
    for (i = 0; i < 72; i++)
        S->producer[i] = NONE;
    S->redirect = S->fence = NONE;
    S->cur_line = -1;
    S->next_ann = -1;
    S->free_int = S->p[P_FREE_INT];
    S->free_fp = S->p[P_FREE_FP];
    S->resume = RS_INIT;
    return S;
}

void tk_set_batch(tk_sim *S, const int32_t *idxs, int64_t nidx,
                  const int8_t *brs, const int64_t *mems,
                  const int64_t *anns, int64_t nann)
{
    S->idxs = idxs; S->brs = brs; S->mems = mems; S->anns = anns;
    S->nidx = nidx;
    S->nann = nann;
    S->di = S->bi = S->mi = S->ai = 0;
    S->next_ann = nann ? anns[0] : -1;
}

void tk_end_of_trace(tk_sim *S)
{
    S->exhausted = 1;
}

void tk_results(const tk_sim *S, int64_t *out)
{
    memcpy(out, S->r, sizeof(S->r));
    out[R_CYCLES] = S->cycle;
}

/* -- helpers -------------------------------------------------------------- */

static int heap_less(const tk_event *a, const tk_event *b)
{
    return a->key < b->key || (a->key == b->key && a->age < b->age);
}

static void heap_push(tk_sim *S, int64_t key, int64_t age)
{
    tk_event *h = S->heap;
    int64_t i = S->nheap++;
    tk_event ev = {key, age};
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        if (!heap_less(&ev, &h[up]))
            break;
        h[i] = h[up];
        i = up;
    }
    h[i] = ev;
}

static int64_t heap_pop(tk_sim *S)
{
    tk_event *h = S->heap;
    int64_t age = h[0].age, n = --S->nheap, i = 0;
    tk_event last = h[n];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && heap_less(&h[c + 1], &h[c]))
            c++;
        if (!heap_less(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    if (n > 0)
        h[i] = last;
    return age;
}

static void add_waiter(tk_sim *S, tk_entry *producer, int32_t waiter_slot)
{
    int32_t e = S->edge_free;
    S->edge_free = S->edge_next[e];
    S->edge_slot[e] = waiter_slot;
    S->edge_next[e] = producer->waiters;
    producer->waiters = e;
}

/* LRU access of one set; returns 1 on hit.  Mirrors sim.cache.Cache. */
static int cache_access(int64_t *tags, int32_t *fill, int64_t assoc,
                        int64_t set, int64_t tag)
{
    int64_t *w = tags + set * assoc;
    int32_t f = fill[set], i;
    for (i = 0; i < f; i++) {
        if (w[i] == tag) {
            memmove(w + i, w + i + 1, (f - i - 1) * sizeof(int64_t));
            w[f - 1] = tag;
            return 1;
        }
    }
    if (f < assoc) {
        w[f] = tag;
        fill[set] = f + 1;
    } else {
        memmove(w, w + 1, (assoc - 1) * sizeof(int64_t));
        w[assoc - 1] = tag;
    }
    return 0;
}

/* FIFO branch target buffer (dict insertion order in the reference);
 * returns 0 when there is no entry to evict into (btb_entries < 1). */
static int btb_insert(tk_sim *S, int32_t pc)
{
    int64_t cap = S->p[P_BTB];
    if (S->in_btb[pc])
        return 1;
    if (cap < 1)
        return 0;
    if (S->btb_n >= cap) {
        S->in_btb[S->btb_fifo[S->btb_head]] = 0;
        S->btb_head = (S->btb_head + 1) % cap;
        S->btb_n--;
    }
    S->btb_fifo[(S->btb_head + S->btb_n) % cap] = pc;
    S->btb_n++;
    S->in_btb[pc] = 1;
    return 1;
}

/* One dynamic branch through make_predictor's scheme: 1 when fetch
 * continues down the right path, 0 on a redirect, -1 when the BTB has
 * no room at all. */
static int predict(tk_sim *S, int32_t pc, int32_t flags, int taken)
{
    int64_t *r = S->r;
    int64_t kind = S->p[P_PREDICTOR];
    int btb = (flags & F_BTB) != 0;
    uint8_t *ctr;
    int predicted;
    if (flags & F_LIKELY) {
        r[R_P_LIKELY]++;
        if (taken || kind == PRED_PERFECT) {
            r[R_P_LIKELY_CORRECT]++;
            return 1;
        }
        r[R_P_MISPREDICTED]++;
        return 0;
    }
    r[R_P_CONDITIONAL]++;
    if (kind == PRED_PERFECT || (kind == PRED_STATIC_TAKEN && taken)) {
        r[R_P_CORRECT]++;
        return 1;
    }
    if (kind == PRED_STATIC_TAKEN) {
        r[R_P_MISPREDICTED]++;
        return 0;
    }
    if (kind == PRED_TWOBIT) {
        ctr = &S->bht[pc & (S->p[P_BHT] - 1)];
    } else {
        int64_t slot = pc & (S->p[P_BHT] - 1);
        uint8_t h = S->hist[slot];
        ctr = &S->bht[(slot << HIST_BITS) + h];
        S->hist[slot] = (uint8_t)(((h << 1) | (taken != 0))
                                  & ((1 << HIST_BITS) - 1));
    }
    predicted = *ctr >= 2;
    if (taken) {
        if (*ctr < 3)
            (*ctr)++;
    } else if (*ctr > 0) {
        (*ctr)--;
    }
    if (predicted != (taken != 0)) {
        r[R_P_MISPREDICTED]++;
        if (taken && btb && !btb_insert(S, pc))
            return -1;
        return 0;
    }
    if (taken && (!btb || !S->in_btb[pc])) {
        r[R_P_BTB_MISSES]++;
        if (btb && !btb_insert(S, pc))
            return -1;
        r[R_P_MISPREDICTED]++;
        return 0;
    }
    r[R_P_CORRECT]++;
    return 1;
}

/* -- the cycle loop ------------------------------------------------------- */

#define LOAD_STATE(t, n) t n = S->n;
#define SAVE_STATE(t, n) S->n = n;
#define SUSPEND(point) do { \
        S->resume = (point); \
        TK_STATE(SAVE_STATE) \
        return TK_NEED_BATCH; \
    } while (0)
#define FAIL(status) do { \
        TK_STATE(SAVE_STATE) \
        return (status); \
    } while (0)

/* Retire up to CW completed entries from the ROB head at cycle `when`,
 * freeing their rename registers and producer slots. */
#define COMMIT_WAVE(when) \
    for (k = 0; head < step_no && k < CW; k++) { \
        tk_entry *e = &ents[head & mask]; \
        if (e->complete == NONE || e->complete > (when)) \
            break; \
        head++; \
        if (e->ann) r[R_ANNULLED]++; else r[R_COMMITTED]++; \
        if (e->rename == 1) free_int++; \
        else if (e->rename == 2) free_fp++; \
        if (e->def >= 0 && S->producer[e->def] == e->age) \
            S->producer[e->def] = NONE; \
    }

int tk_run(tk_sim *S)
{
    TK_STATE(LOAD_STATE)
    const int64_t *p = S->p;
    int64_t *r = S->r;
    tk_entry *ents = S->ents;
    const int64_t mask = S->mask;
    const int64_t CW = p[P_COMMIT_W], DW = p[P_DISPATCH_W];
    const int64_t ROB = p[P_ROB], RECOV = p[P_RECOVERY];
    const int64_t FSTALL = p[P_FENCE_STALL], MISS = p[P_MISS];
    const int64_t *QCAP = p + P_Q0, *UCAP = p + P_U0;
    const int64_t line_shift = p[P_LINE_SHIFT], assoc = p[P_ASSOC];
    const int64_t iset_mask = p[P_ISETS] - 1, dset_mask = p[P_DSETS] - 1;
    int itag_shift = 0, dtag_shift = 0;
    int64_t *qlen = S->qlen;
    int64_t k, c0;

    while ((iset_mask >> itag_shift) != 0)
        itag_shift++;
    while ((dset_mask >> dtag_shift) != 0)
        dtag_shift++;

    switch (S->resume) {
    case RS_INIT:
        SUSPEND(RS_LOOP);
    case RS_LOOP:
        break;
    case RS_DISPATCH_TOP:
        goto resume_dispatch_top;
    case RS_DISPATCH_END:
        goto resume_dispatch_end;
    }

    while (!exhausted || head < step_no) {
        /* -- span skip ---------------------------------------------------- */
        if (exhausted || redirect != NONE || fence != NONE
                || cycle < fetch_resume) {
            int64_t t, cur;
            int mode;
            if (redirect != NONE) {
                c0 = ents[redirect & mask].complete;
                t = c0 != NONE ? c0 + RECOV : NEVER;
                mode = 1;
            } else if (fence != NONE) {
                c0 = ents[fence & mask].complete;
                t = c0 != NONE ? c0 + FSTALL : NEVER;
                mode = 2;
            } else if (cycle < fetch_resume) {
                t = fetch_resume;
                mode = 3;
            } else {
                t = NEVER;
                mode = 0;
            }
            /* a pending event (or a carried entry) bounds the jump */
            if (S->nheap && S->heap[0].key < t)
                t = S->heap[0].key;
            if (t > cycle) {
                int64_t span;
                cur = cycle;
                while (head < step_no && cur < t) {
                    c0 = ents[head & mask].complete;
                    if (c0 == NONE)
                        break;
                    if (c0 > cur) {
                        if (c0 >= t)
                            break;
                        cur = c0;
                    }
                    COMMIT_WAVE(cur)
                    cur++;
                }
                if (t == NEVER) {
                    /* pure drain: the ROB was fully issued and is empty */
                    cycle = cur;
                    continue;
                }
                span = t - cycle;
                if (mode == 1) {
                    r[R_FETCH_STALL] += span;
                } else if (mode == 2) {
                    r[R_FENCE_STALL] += span;
                    r[R_FETCH_STALL] += span;
                } else if (mode == 3) {
                    r[R_ICACHE_STALL] += span;
                    r[R_FETCH_STALL] += span;
                }
                for (k = 0; k < 4; k++)
                    if (qlen[k] >= QCAP[k])
                        r[R_QFULL + k] += span;
                cycle = t;
            }
        }

        /* -- 1. commit ---------------------------------------------------- */
        COMMIT_WAVE(cycle)

        /* -- 2. issue ----------------------------------------------------- */
        if (S->nheap && S->heap[0].key == cycle) {
            int64_t iss[7] = {0, 0, 0, 0, 0, 0, 0};
            while (S->nheap && S->heap[0].key == cycle) {
                int64_t age = heap_pop(S), lat, c2;
                tk_entry *e = &ents[age & mask];
                int u = e->unit;
                int32_t w;
                if (iss[u] >= UCAP[u] || (u == 6 && cycle < fpdiv_busy)) {
                    heap_push(S, cycle + 1, age);   /* carry */
                    continue;
                }
                iss[u]++;
                r[R_UISSUES + u]++;
                if (e->ann) {
                    lat = 1;
                } else {
                    lat = S->meta[e->pc * TK_META_STRIDE + M_LAT];
                    if (e->addr >= 0) {
                        int64_t blk = e->addr >> line_shift;
                        r[R_DACC]++;
                        if (!cache_access(S->dtags, S->dfill, assoc,
                                          blk & dset_mask,
                                          blk >> dtag_shift)) {
                            r[R_DMISS]++;
                            lat += MISS;
                        }
                    }
                }
                if (u == 6)
                    fpdiv_busy = cycle + lat;
                c2 = cycle + lat;
                e->complete = c2;
                qlen[e->queue]--;
                for (w = e->waiters; w >= 0;) {
                    tk_entry *x = &ents[S->edge_slot[w]];
                    int32_t nxt = S->edge_next[w];
                    x->pend--;
                    if (c2 > x->rdy)
                        x->rdy = c2;
                    if (!x->pend)
                        heap_push(S, x->rdy > cycle ? x->rdy : cycle + 1,
                                  x->age);
                    S->edge_next[w] = S->edge_free;
                    S->edge_free = w;
                    w = nxt;
                }
                e->waiters = -1;
            }
            for (k = 0; k < 7; k++)
                if (iss[k] && iss[k] >= UCAP[k])
                    r[R_UFULL + k]++;
        }

        /* -- 3. dispatch -------------------------------------------------- */
        {
            int open = 1;
            if (redirect != NONE) {
                c0 = ents[redirect & mask].complete;
                if (c0 == NONE || cycle < c0 + RECOV) {
                    r[R_FETCH_STALL]++;
                    open = 0;
                } else {
                    redirect = NONE;
                    cur_line = -1;
                }
            }
            if (open && fence != NONE) {
                c0 = ents[fence & mask].complete;
                if (c0 == NONE || cycle < c0 + FSTALL) {
                    r[R_FENCE_STALL]++;
                    r[R_FETCH_STALL]++;
                    open = 0;
                } else {
                    fence = NONE;
                }
            }
            if (open && cycle < fetch_resume) {
                r[R_ICACHE_STALL]++;
                r[R_FETCH_STALL]++;
                open = 0;
            }
            if (!open)
                goto occupancy;
        }
        for (slot = 0; slot < DW; slot++) {
            const int32_t *m;
            int32_t pc, fl, qi, rn, ann;
            int64_t addr, rdy, x_age;
            int32_t pend, j;
            int hit;
            tk_entry *e;
            if (di >= nidx) {
                if (exhausted)
                    break;
                SUSPEND(RS_DISPATCH_TOP);
resume_dispatch_top:
                if (exhausted)
                    break;
            }
            pc = S->idxs[di];
            m = S->meta + (int64_t)pc * TK_META_STRIDE;
            fl = m[M_FLAGS];
            if (m[M_LINE] != cur_line) {
                int64_t line = m[M_LINE];
                cur_line = line;
                r[R_IACC]++;
                if (!cache_access(S->itags, S->ifill, assoc,
                                  line & iset_mask, line >> itag_shift)) {
                    r[R_IMISS]++;
                    fetch_resume = cycle + MISS;
                    break;
                }
            }
            if (fl & F_UNMODELED) {
                r[R_ERROR_PC] = pc;
                FAIL(TK_UNMODELED);
            }
            qi = m[M_QUEUE];
            rn = m[M_RENAME];
            if (step_no - head >= ROB)
                break;
            if (qlen[qi] >= QCAP[qi])
                break;
            if (rn == 1) {
                if (free_int <= 0)
                    break;
            } else if (rn == 2) {
                if (free_fp <= 0)
                    break;
            }
            if (step_no == next_ann) {
                ann = 1;
                ai++;
                next_ann = ai < nann ? S->anns[ai] : -1;
                addr = -1;
            } else {
                ann = 0;
                addr = (fl & F_MEM) ? S->mems[mi++] : -1;
            }
            e = &ents[step_no & mask];
            pend = 0;
            rdy = 0;
            e->complete = NONE;
            e->rdy = 0;
            e->addr = addr;
            e->age = step_no;
            e->pc = pc;
            e->waiters = -1;
            e->def = m[M_DEF];
            e->ann = (uint8_t)ann;
            e->unit = (uint8_t)m[M_UNIT];
            e->rename = (uint8_t)rn;
            e->queue = (uint8_t)qi;
            if (rn == 1)
                free_int--;
            else if (rn == 2)
                free_fp--;
            for (j = 0; j < m[M_USE_N]; j++) {
                int64_t pa = S->producer[S->uses[m[M_USE_OFF] + j]];
                if (pa != NONE) {
                    tk_entry *pe = &ents[pa & mask];
                    if (pe->complete == NONE) {
                        pend++;
                        add_waiter(S, pe, (int32_t)(step_no & mask));
                    } else if (pe->complete > rdy && pe->complete > cycle) {
                        rdy = pe->complete;
                    }
                }
            }
            if ((fl & F_FENCE) && !ann) {
                /* a fence waits on everything in flight */
                for (x_age = head; x_age < step_no; x_age++) {
                    tk_entry *x = &ents[x_age & mask];
                    if (x->complete == NONE) {
                        pend++;
                        add_waiter(S, x, (int32_t)(step_no & mask));
                    } else if (x->complete > rdy && x->complete > cycle) {
                        rdy = x->complete;
                    }
                }
            }
            e->pend = pend;
            e->rdy = rdy;
            if (!pend)
                heap_push(S, rdy > cycle ? rdy : cycle + 1, step_no);
            if (!ann && e->def >= 0)
                S->producer[e->def] = step_no;
            qlen[qi]++;
            stall = 0;
            if ((fl & F_FENCE) && !ann) {
                r[R_FENCE_EVENTS]++;
                fence = step_no;
                stall = 1;
            } else if ((fl & F_BRANCH) && !ann) {
                hit = predict(S, pc, fl, S->brs[bi++] != 0);
                if (hit < 0)
                    FAIL(TK_BTB_EMPTY);
                if (!hit) {
                    r[R_MISPREDICTS]++;
                    redirect = step_no;
                    stall = 1;
                }
            } else if (fl & F_JRJALR) {
                /* register-target jump, even annulled */
                if (p[P_PREDICTOR] != PRED_PERFECT) {
                    r[R_INDIRECT]++;
                    r[R_P_INDIRECT]++;
                    redirect = step_no;
                    stall = 1;
                }
            }
            step_no++;
            di++;
            if (di >= nidx && !exhausted) {
                SUSPEND(RS_DISPATCH_END);
resume_dispatch_end:
                ;
            }
            if (stall)
                break;
        }

occupancy:
        /* -- 4. occupancy ------------------------------------------------- */
        for (k = 0; k < 4; k++)
            if (qlen[k] >= QCAP[k])
                r[R_QFULL + k]++;
        cycle++;
        if (cycle > CYCLE_GUARD)
            FAIL(TK_NO_CONVERGE);
    }
    FAIL(TK_DONE);
}
