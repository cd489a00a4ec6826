/* Native kernels behind six exported whole-call entries:
 *
 * - repro_plan_apply runs a whole CommPlan apply (repro.runtime.plan)
 *   in one call;
 * - repro_partition_kway runs all of repro.hypergraph.partition_kway in
 *   one call, and repro_bisect one V-cycle of
 *   repro.hypergraph.bisect.multilevel_bisect (Mondriaan ORB's
 *   bisections).  Both chain the partitioner's stage loops below (the
 *   FM set-up and pass loop of repro.hypergraph.refine, the K-way
 *   greedy polish of repro.hypergraph.kway, the heavy-connectivity
 *   matching and the contraction of repro.hypergraph.coarsen and the
 *   two initial bisections of repro.hypergraph.initial), with a
 *   bit-exact port of the NumPy random streams they draw (PCG64,
 *   Generator.permutation's shuffle, spawn's bounded draws and
 *   SeedSequence seeding).  The stage loops are static: the Python
 *   stage modules are their NumPy reference, not their callers.
 *   repro_partition_kway runs the two sides of a split on separate
 *   threads (POSIX threads, all joined before it returns), with the
 *   same parts at any thread count; repro_bisect is serial;
 * - Algorithm 1's combinatorics (bottom of this file): repro_block_dm
 *   takes the coarse Dulmage-Mendelsohn labels of every block of a
 *   batch in one call (repro.dm.batch), and repro_s2d_flip runs the
 *   greedy flip rounds of repro.core.s2d.s2d_heuristic.  The DM kernel
 *   finds its own maximum matching, not the one the NumPy reference's
 *   Hopcroft-Karp finds; the labels and the matching size are the same
 *   for every maximum matching, so its outputs are identical;
 * - repro_native_abi, the loader's stale-cache guard.
 *
 * No kernel allocates: callers pass every output and workspace array.
 * The exceptions are the two recursive-bisection drivers, whose
 * scratch depends on how deep the coarsening goes: they malloc it
 * inside the call and free all of it before returning, on every path,
 * and report a failed allocation as a status that Python raises as
 * MemoryError.
 *
 * Bit-identity contract of the SpMV kernels with the NumPy apply
 * (CommPlan._apply_y_numpy):
 *
 * - every scatter iterates items in index order, so the additions into
 *   each output slot happen in exactly the element order of
 *   np.bincount(idx, weights=w) and np.add.at(acc, idx, w);
 * - the main products of one row are summed in a register that starts
 *   at +0.0 and adds the row's products in element order.  np.bincount
 *   starts every bin at +0.0 and adds its weights in element order too,
 *   so when a row's products are contiguous and in order (main_rows is
 *   nondecreasing, checked when the plan state is built) the register
 *   performs the identical additions.  Starting from +0.0 matters: a
 *   row whose only products are -0.0 sums to +0.0, as in bincount;
 * - each product rounds to double before the add.  The build always
 *   passes -ffp-contract=off, so the compiler cannot contract the
 *   multiply-add into an FMA (which would skip the intermediate
 *   rounding and change the low bits);
 * - no reassociation: strict IEEE semantics are the C default, so the
 *   register sum is not split into vector lanes.
 */

#define _POSIX_C_SOURCE 200112L /* clock_gettime, pthreads */

#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define EXPORT __attribute__((visibility("default")))

/* Bumped whenever an exported signature changes; the loader refuses a
 * cached .so whose ABI does not match (stale-cache guard). */
EXPORT int64_t repro_native_abi(void) { return 10; }

/* acc[idx[i]] += vals[i] * x[cols[i]]  — the fused expand/compute
 * inner loop: gather x, multiply by the nonzero value, scatter-add
 * into the group (or output-row) accumulator.
 *
 * This loop and the next stay out of line.  Which operand of an add
 * passes its NaN on is the compiler's choice, and inlining them has
 * changed that choice before; the inf/NaN bit-identity tests pin the
 * out-of-line code. */
static __attribute__((noinline)) void gather_mul_scatter(
    int64_t n,
    const double *restrict vals,
    const int64_t *restrict cols,
    const double *restrict x,
    const int64_t *restrict idx,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[idx[i]] += vals[i] * x[cols[i]];
}

/* acc[idx[i]] += vals[i]  — the group-sum / fold scatter
 * (np.bincount(idx, weights=vals) / np.add.at element order). */
static __attribute__((noinline)) void scatter_add(
    int64_t n,
    const int64_t *restrict idx,
    const double *restrict vals,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[idx[i]] += vals[i];
}

static void zero(double *a, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        a[i] = 0.0;
}

/* One CommPlan apply, y = A x:
 *
 *   psums[g1[i]] += pre_vals[i] * x[pre_cols[i]]       (ng1 groups)
 *   fsums[g2[i]] += psums[i]        when g2 != NULL     (ng2 groups)
 *   y[row] = sum of main_vals[k] * x[main_cols[k]]
 *            over k in ptr[row]..ptr[row+1]              (ptr != NULL)
 *   y[fold_rows[i]] += fsums[i]     through a zeroed nrows buffer,
 *                                   then one y += fold (nfold > 0)
 *
 * Two-phase plans have no main section (ptr == NULL): y is the fold
 * scatter alone.  work holds ng1 doubles for psums, then ng2 for fsums
 * when g2 != NULL, then nrows for the fold buffer when there is a main
 * section and nfold > 0; every piece is zeroed here.  The group
 * indices are compact (each below its group count).
 *
 * The main products are summed per row in a register, not scattered:
 * a scatter's read-modify-write of y[row] puts a store-to-load
 * dependency through memory on every product. */
EXPORT void repro_plan_apply(
    int64_t nrows, int64_t npre, int64_t ng1, int64_t ng2, int64_t nfold,
    const double *restrict pre_vals,
    const int64_t *restrict pre_cols,
    const int64_t *restrict g1,
    const int64_t *restrict g2,
    const int64_t *restrict fold_rows,
    const int64_t *restrict ptr,
    const int64_t *restrict main_cols,
    const double *restrict main_vals,
    const double *restrict x,
    double *restrict y,
    double *restrict work)
{
    double *psums = work;
    zero(psums, ng1);
    gather_mul_scatter(npre, pre_vals, pre_cols, x, g1, psums);
    const double *fsums = psums;
    work += ng1;
    if (g2 != NULL) {
        zero(work, ng2);
        scatter_add(ng1, g2, psums, work);
        fsums = work;
        work += ng2;
    }
    if (ptr == NULL) {
        zero(y, nrows);
        scatter_add(nfold, fold_rows, fsums, y);
        return;
    }
    for (int64_t row = 0; row < nrows; row++) {
        double s = 0.0;
        for (int64_t k = ptr[row]; k < ptr[row + 1]; k++)
            s += main_vals[k] * x[main_cols[k]];
        y[row] = s;
    }
    if (nfold > 0) {
        /* A separate accumulator, then one vector add: the association
         * of the NumPy y += np.bincount(fold_rows, fsums). */
        zero(work, nrows);
        scatter_add(nfold, fold_rows, fsums, work);
        for (int64_t i = 0; i < nrows; i++)
            y[i] += work[i];
    }
}

/* ------------------------------------------------------------------
 * Hypergraph partitioner: the FM pass loop and the K-way greedy polish.
 *
 * Bit-identity contract with their NumPy reference
 * (repro.hypergraph.refine._fm_setup and _fm_passes, and
 * repro.hypergraph.kway._kway_passes):
 *
 * - every gain is an int64 sum of net costs, so the order in which the
 *   per-net deltas land cannot change a gain;
 * - the balance arithmetic is the same float64 subtractions, additions,
 *   products and comparisons as the NumPy expressions, one rounding
 *   each (-ffp-contract=off again rules out fused multiply-adds);
 * - every tie breaks as the reference breaks it: LIFO gain buckets,
 *   seeds, re-inserted vertices and boundary vertices in ascending id
 *   order, the first part of maximal K-way gain.
 *
 * Hypergraph arrays are CSR: net e's pins are pins[xpins[e]:xpins[e+1]],
 * vertex v's nets are nets[xnets[v]:xnets[v+1]], and its nets of at
 * least two pins are vnets[vipt[v]:vipt[v+1]].  Precondition: no net
 * lists a vertex twice (partition_kway rejects such input).
 */

typedef struct {
    const int64_t *xpins, *pins, *ncosts, *vipt, *vnets;
} fm_graph;

/* Gain buckets: doubly linked lists indexed by gain + gmax. */
typedef struct {
    int64_t gmax;
    int64_t *head;  /* 2*gmax + 1 bucket heads, -1 when empty */
    int64_t *next, *prev, *slot;
    int8_t *linked;
} fm_buckets;

static int64_t fm_insert(fm_buckets *q, int64_t v, int64_t gain)
{
    const int64_t b = gain + q->gmax;
    const int64_t h = q->head[b];
    q->next[v] = h;
    q->prev[v] = -1;
    if (h >= 0)
        q->prev[h] = v;
    q->head[b] = v;
    q->linked[v] = 1;
    q->slot[v] = b;
    return b;
}

static void fm_unlink(fm_buckets *q, int64_t v)
{
    const int64_t p = q->prev[v], x = q->next[v];
    if (p >= 0)
        q->next[p] = x;
    else
        q->head[q->slot[v]] = x;
    if (x >= 0)
        q->prev[x] = p;
    q->linked[v] = 0;
}

static void sift_down(int64_t *a, int64_t root, int64_t n)
{
    const int64_t v = a[root];
    for (;;) {
        int64_t child = 2 * root + 1;
        if (child >= n)
            break;
        if (child + 1 < n && a[child + 1] > a[child])
            child++;
        if (a[child] <= v)
            break;
        a[root] = a[child];
        root = child;
    }
    a[root] = v;
}

/* In-place ascending heapsort. */
static void sort_ids(int64_t *a, int64_t n)
{
    for (int64_t i = n / 2 - 1; i >= 0; i--)
        sift_down(a, i, n);
    for (int64_t end = n - 1; end > 0; end--) {
        const int64_t t = a[0];
        a[0] = a[end];
        a[end] = t;
        sift_down(a, 0, end);
    }
}

static double at_least_one(double x) { return x < 1.0 ? 1.0 : x; }

/* refine.py's _viol on the side weights pw (2 x ncon) after moving
 * weight w from side a to the other side (w == NULL: no move): the
 * largest pw * inv_limits, then +inf when a zero-limit entry carries
 * weight, else at least 1.0 when any limit is zero. */
static double fm_violation(const double *pw, const double *w, int a, int64_t ncon,
                           const double *inv_limits, const int8_t *zero_limit,
                           int has_zero)
{
    double rel = -INFINITY;
    int overrun = 0;
    for (int s = 0; s < 2; s++)
        for (int64_t j = 0; j < ncon; j++) {
            const int64_t i = s * ncon + j;
            double x = pw[i];
            if (w != NULL)
                x = s == a ? x - w[j] : x + w[j];
            const double r = x * inv_limits[i];
            if (r > rel)
                rel = r;
            if (zero_limit[i] && x > 0)
                overrun = 1;
        }
    if (!has_zero)
        return rel;
    return overrun ? INFINITY : at_least_one(rel);
}

/* Move v from side a to 1 - a: update the pin counts pc (nnets x 2),
 * the side array and every gain the move changes.  With touched != NULL
 * the other vertices whose gain was touched are appended to it once
 * each (mark[] flags them; the caller clears it).  Returns how many.
 *
 * Per incident net of cost c, with pa/pb its pins on a/b before:
 * A pb == 0: the net becomes cut, every pin +c;
 * D pa == 1: the net becomes internal to b, every pin -c;
 * B pb == 1: the lone b pin loses its bonus, -c;
 * C pa == 2: the remaining a pin gains it, +c.
 * v's own gain simply flips sign. */
static int64_t fm_apply(const fm_graph *g, int8_t *part, int64_t *pc, int64_t *gain,
                        int64_t v, int a, int64_t *touched, int8_t *mark)
{
    const int b = 1 - a;
    const int64_t g_old = gain[v];
    int64_t nt = 0;
#define NOTE(u)                                                   \
    do {                                                          \
        if (touched != NULL && (u) != v && !mark[u]) {            \
            mark[u] = 1;                                          \
            touched[nt++] = (u);                                  \
        }                                                         \
    } while (0)
    for (int64_t k = g->vipt[v]; k < g->vipt[v + 1]; k++) {
        const int64_t e = g->vnets[k], c = g->ncosts[e];
        const int64_t pa = pc[2 * e + a], pb = pc[2 * e + b];
        const int64_t lo = g->xpins[e], hi = g->xpins[e + 1];
        if (pb == 0 || pa == 1) {
            const int64_t d = pb == 0 ? c : -c;
            for (int64_t p = lo; p < hi; p++) {
                const int64_t u = g->pins[p];
                gain[u] += d;
                NOTE(u);
            }
        }
        if (pb == 1 || pa == 2) {
            for (int64_t p = lo; p < hi; p++) {
                const int64_t u = g->pins[p];
                if (u == v)
                    continue;
                if (pb == 1 && part[u] == b) {
                    gain[u] -= c;
                    NOTE(u);
                } else if (pa == 2 && part[u] == a) {
                    gain[u] += c;
                    NOTE(u);
                }
            }
        }
        pc[2 * e + a] = pa - 1;
        pc[2 * e + b] = pb + 1;
    }
#undef NOTE
    part[v] = (int8_t)b;
    gain[v] = -g_old;
    return nt;
}

/* The pass loop's starting state from part alone, as refine.py's
 * _fm_setup computes it: the per-net side pin counts pc over every pin,
 * the side weights pw (int64 sums in pw_sum, then converted to float64,
 * as part_weights(...).astype(float64) does) and each vertex's exact
 * move gain over its valid nets.  Every sum is an int64 sum, so its
 * order is free.  Returns the cut. */
static int64_t fm_setup(const fm_graph *g, int64_t n, int64_t nnets, int64_t ncon,
                        const int64_t *vweights, const int8_t *part, int64_t *pc,
                        int64_t *gain, double *pw, int64_t *pw_sum)
{
    for (int64_t i = 0; i < 2 * nnets; i++)
        pc[i] = 0;
    int64_t cut = 0;
    for (int64_t e = 0; e < nnets; e++) {
        for (int64_t p = g->xpins[e]; p < g->xpins[e + 1]; p++)
            pc[2 * e + part[g->pins[p]]]++;
        if (pc[2 * e] > 0 && pc[2 * e + 1] > 0)
            cut += g->ncosts[e];
    }
    for (int64_t i = 0; i < 2 * ncon; i++)
        pw_sum[i] = 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < ncon; j++)
            pw_sum[part[v] * ncon + j] += vweights[v * ncon + j];
    for (int64_t i = 0; i < 2 * ncon; i++)
        pw[i] = (double)pw_sum[i];
    /* A lone pin on its side gains c by moving; a net with no pin on
     * the other side costs c. */
    for (int64_t v = 0; v < n; v++) {
        const int a = part[v];
        int64_t gv = 0;
        for (int64_t k = g->vipt[v]; k < g->vipt[v + 1]; k++) {
            const int64_t e = g->vnets[k], c = g->ncosts[e];
            if (pc[2 * e + a] == 1)
                gv += c;
            if (pc[2 * e + 1 - a] == 0)
                gv -= c;
        }
        gain[v] = gv;
    }
    return cut;
}

/* FM refinement of a bisection: the set-up above, then up to
 * max_passes passes; returns the final cut (the initial cut minus every
 * kept pass's gain).
 *
 * part (n, 0/1) is refined in place; pc (nnets x 2 pin counts), gain
 * (n exact move gains) and pw (2 x ncon side weights) receive the
 * state, final on return (the set-up state when max_passes is 0).
 * targets is 2 x ncon: side s may carry targets[s] * (1 + epsilon).
 * vweights is the int64 n x ncon weight matrix; gmax bounds every
 * |gain| (the largest sum of a vertex's valid net costs).  Workspace:
 * iwork holds 2*gmax + 1 + 7n + 2*ncon int64, dwork (n + 2) * ncon
 * float64, bwork 3n + 2*ncon int8.  A pass stops after max(64, seeds /
 * stall_fraction) moves without a better prefix, rolls back to its best
 * prefix, and the refinement ends when a pass keeps nothing or
 * converges. */
static int64_t repro_fm_passes(
    int64_t n,
    int64_t nnets,
    int64_t ncon,
    int64_t gmax,
    int64_t max_passes,
    int64_t stall_fraction,
    double epsilon,
    const int64_t *restrict xpins,
    const int64_t *restrict pins,
    const int64_t *restrict ncosts,
    const int64_t *restrict vipt,
    const int64_t *restrict vnets,
    const int64_t *restrict vweights,
    const double *restrict targets,
    int8_t *restrict part,
    int64_t *restrict pc,
    int64_t *restrict gain,
    double *restrict pw,
    int64_t *restrict iwork,
    double *restrict dwork,
    int8_t *restrict bwork)
{
    const fm_graph g = {xpins, pins, ncosts, vipt, vnets};
    const int64_t nbuckets = 2 * gmax + 1;
    fm_buckets q = {gmax, iwork, iwork + nbuckets, iwork + nbuckets + n,
                    iwork + nbuckets + 2 * n, bwork};
    int64_t *seeds = iwork + nbuckets + 3 * n;
    int64_t *moves = seeds + n, *gsum = moves + n, *touched = gsum + n;
    int8_t *locked = bwork + n, *mark = bwork + 2 * n;
    double *wfloat = dwork, *inv_limits = dwork + n * ncon;
    int8_t *zero_limit = bwork + 3 * n;

    int64_t cut = fm_setup(&g, n, nnets, ncon, vweights, part, pc, gain, pw,
                           touched + n);
    for (int64_t i = 0; i < n * ncon; i++)
        wfloat[i] = (double)vweights[i];
    /* refine.py's _limits: reciprocal limits, zero where a limit is not
     * positive (the zero-limit convention of _violation). */
    const double scale = 1.0 + epsilon;
    int has_zero = 0;
    for (int64_t i = 0; i < 2 * ncon; i++) {
        const double limit = targets[i] * scale;
        zero_limit[i] = !(limit > 0);
        inv_limits[i] = zero_limit[i] ? 0.0 : 1.0 / limit;
        has_zero |= zero_limit[i];
    }
    for (int64_t v = 0; v < n; v++)
        mark[v] = 0;

    for (int64_t pass = 0; pass < max_passes; pass++) {
        /* Seeds: vertices on a cut net, else every vertex. */
        int64_t nseeds = 0;
        for (int64_t v = 0; v < n; v++)
            for (int64_t k = vipt[v]; k < vipt[v + 1]; k++) {
                const int64_t e = vnets[k];
                if (pc[2 * e] > 0 && pc[2 * e + 1] > 0) {
                    seeds[nseeds++] = v;
                    break;
                }
            }
        if (nseeds == 0) {
            for (int64_t v = 0; v < n; v++)
                seeds[v] = v;
            nseeds = n;
        }
        if (nseeds == 0)
            break;

        for (int64_t b = 0; b < nbuckets; b++)
            q.head[b] = -1;
        for (int64_t v = 0; v < n; v++) {
            q.linked[v] = 0;
            locked[v] = 0;
        }
        int64_t cur = 0;
        for (int64_t i = 0; i < nseeds; i++) {
            const int64_t b = fm_insert(&q, seeds[i], gain[seeds[i]]);
            if (b > cur)
                cur = b;
        }

        /* Prefix score (violation, -gain), compared lexicographically:
         * feasibility dominates, so repair moves that cut nets are kept. */
        double cur_viol = fm_violation(pw, NULL, 0, ncon, inv_limits, zero_limit, has_zero);
        double best_viol = at_least_one(cur_viol);
        int64_t best_neg = 0, best_pos = -1, nmoves = 0, running = 0;
        const int64_t stall = nseeds / stall_fraction > 64 ? nseeds / stall_fraction : 64;

        while (cur >= 0) {
            const int64_t v = q.head[cur];
            if (v < 0) {
                cur--;
                continue;
            }
            fm_unlink(&q, v);
            const int a = part[v], b = 1 - a;
            const double *w = wfloat + v * ncon;
            const double new_viol =
                fm_violation(pw, w, a, ncon, inv_limits, zero_limit, has_zero);
            if (new_viol > 1.0 && new_viol >= cur_viol)
                continue; /* inadmissible: would (keep) violating balance */
            locked[v] = 1;
            const int64_t move_gain = gain[v];
            const int64_t nt = fm_apply(&g, part, pc, gain, v, a, touched, mark);
            sort_ids(touched, nt);
            for (int64_t i = 0; i < nt; i++) {
                const int64_t u = touched[i];
                mark[u] = 0;
                if (locked[u])
                    continue;
                if (q.linked[u])
                    fm_unlink(&q, u);
                const int64_t bu = fm_insert(&q, u, gain[u]);
                if (bu > cur)
                    cur = bu;
            }
            running += move_gain;
            for (int64_t j = 0; j < ncon; j++) {
                pw[a * ncon + j] -= w[j];
                pw[b * ncon + j] += w[j];
            }
            cur_viol = new_viol;
            moves[nmoves] = v;
            gsum[nmoves] = running;
            nmoves++;
            const double viol = at_least_one(cur_viol);
            if (viol < best_viol || (viol == best_viol && -running < best_neg)) {
                best_viol = viol;
                best_neg = -running;
                best_pos = nmoves - 1;
            } else if (nmoves - 1 - best_pos >= stall) {
                break; /* the tail is heading for rollback anyway */
            }
        }
        if (nmoves == 0)
            break;

        /* Roll back the moves after the best prefix. */
        const int64_t best_gain = best_pos >= 0 ? gsum[best_pos] : 0;
        for (int64_t i = nmoves - 1; i > best_pos; i--) {
            const int64_t v = moves[i];
            const int b = part[v], a = 1 - b;
            const double *w = wfloat + v * ncon;
            fm_apply(&g, part, pc, gain, v, b, NULL, NULL);
            for (int64_t j = 0; j < ncon; j++) {
                pw[b * ncon + j] -= w[j];
                pw[a * ncon + j] += w[j];
            }
        }
        if (best_pos == -1)
            break;
        cut -= best_gain;
        if (best_gain <= 0 && best_viol <= 1.0)
            break; /* feasible and no volume improvement: converged */
    }
    return cut;
}

/* Per-net connectivity sets for the K-way polish, O(pins) in all.  Net
 * e's parts and their pin counts are slots off[e] .. off[e] + lam[e] - 1
 * of part / count; lam[e] is the net's connectivity.  A net of fewer
 * than two pins, which no move can cut, has no slots.
 *
 * - A sparse net (2|e| < nparts) has room for |e| slots, its parts in
 *   no particular order; a part's slot is found by a scan.
 * - A dense net (2|e| >= nparts) has nparts slots holding every part:
 *   the lam[e] parts on the net first, then the absent ones.  where at
 *   woff[e] gives each part's slot (woff[e] < 0: a sparse net).  Its
 *   nparts-sized arrays cost at most 6 words a pin. */
typedef struct {
    int64_t *off, *lam, *part, *count, *woff, *where;
} net_parts;

/* Swap slots i and j of a dense net (slots, counts and where at its
 * offsets). */
static void dense_swap(int64_t *part, int64_t *count, int64_t *where, int64_t i, int64_t j)
{
    const int64_t pi = part[i], pj = part[j], ci = count[i];
    part[i] = pj;
    part[j] = pi;
    count[i] = count[j];
    count[j] = ci;
    where[pj] = i;
    where[pi] = j;
}

/* Scratch of one weighing: gains[p] of every part in touched (seen[p]
 * marks them), aslot[j] the slot of the vertex's own part on its j-th
 * valid net. */
typedef struct {
    int64_t *gains, *touched, *aslot;
    int8_t *seen;
} kway_scratch;

/* Up to max_passes greedy K-way passes under the connectivity-1 metric.
 *
 * A pass visits the vertices on a net spanning >= 2 parts at the pass
 * start, in ascending order.  Each moves to the first part of maximal
 * positive gain whose weights stay within limit, if any.  part (n),
 * the sets np and pw (nparts x ncon part weights) are updated in place;
 * wfloat is n x ncon, limit ncon; cut (nnets) is workspace.
 *
 * The gain of moving v from a to k sums, over v's nets e of cost c,
 * +c where pc[e][a] == 1 and pc[e][k] > 0 and -c where pc[e][a] >= 2
 * and pc[e][k] == 0 (kway.py's dense reference).  That is P_k - T: P_k
 * sums c over v's nets that hold k, T over v's nets with pc[e][a] >= 2.
 * P_k is accumulated over the parts on each net, or, on a dense net
 * holding more than half the parts, as c for every part (U) minus c
 * for each absent one, so weighing v costs at most nparts / 2 per net.
 * A part that no net touches has gain U - T: only the first such part
 * that fits can win, and only when U - T > 0.  The touched parts are
 * weighed in any order; the largest gain among those that fit, the
 * smallest part on ties, is the dense scan's first part of maximal
 * gain. */
static void repro_kway_passes(
    int64_t n,
    int64_t nnets,
    int64_t nparts,
    int64_t ncon,
    int64_t max_passes,
    const int64_t *restrict vipt,
    const int64_t *restrict vnets,
    const int64_t *restrict ncosts,
    const double *restrict wfloat,
    const double *restrict limit,
    int64_t *restrict part,
    const net_parts *np,
    double *restrict pw,
    const kway_scratch *ks,
    int8_t *restrict cut)
{
    int64_t *restrict gains = ks->gains, *restrict touched = ks->touched;
    int64_t *restrict spart = np->part, *restrict scount = np->count;
    int8_t *restrict seen = ks->seen;
    for (int64_t pass = 0; pass < max_passes; pass++) {
        for (int64_t e = 0; e < nnets; e++)
            cut[e] = np->lam[e] >= 2;
        int moved = 0;
        for (int64_t v = 0; v < n; v++) {
            const int64_t *vn = vnets + vipt[v];
            const int64_t deg = vipt[v + 1] - vipt[v];
            int boundary = 0;
            for (int64_t j = 0; j < deg && !boundary; j++)
                boundary = cut[vn[j]];
            if (!boundary)
                continue;
            const int64_t a = part[v];
            int64_t nt = 0, all = 0, drop = 0;
#define TOUCH(p, delta)                \
    do {                               \
        const int64_t p_ = (p);        \
        if (!seen[p_]) {               \
            seen[p_] = 1;              \
            gains[p_] = 0;             \
            touched[nt++] = p_;        \
        }                              \
        gains[p_] += (delta);          \
    } while (0)
            for (int64_t j = 0; j < deg; j++) {
                const int64_t e = vn[j], c = ncosts[e], base = np->off[e], lam = np->lam[e];
                if (np->woff[e] >= 0) {
                    const int64_t sa = np->where[np->woff[e] + a];
                    ks->aslot[j] = sa;
                    drop += scount[base + sa] >= 2 ? c : 0;
                    if (2 * lam > nparts) {
                        all += c;
                        for (int64_t s = lam; s < nparts; s++)
                            TOUCH(spart[base + s], -c);
                    } else {
                        for (int64_t s = 0; s < lam; s++)
                            TOUCH(spart[base + s], c);
                    }
                    continue;
                }
                for (int64_t s = 0; s < lam; s++) {
                    const int64_t p = spart[base + s];
                    TOUCH(p, c);
                    if (p == a) {
                        ks->aslot[j] = s;
                        drop += scount[base + s] >= 2 ? c : 0;
                    }
                }
            }
#undef TOUCH
            const double *w = wfloat + v * ncon;
            int64_t best = -1, best_gain = 0;
            for (int64_t i = 0; i < nt; i++) {
                const int64_t k = touched[i], g = all + gains[k] - drop;
                if (k == a || g < best_gain || g <= 0 || (g == best_gain && k > best))
                    continue;
                int fits = 1;
                for (int64_t j = 0; j < ncon && fits; j++)
                    fits = pw[k * ncon + j] + w[j] <= limit[j];
                if (fits) {
                    best = k;
                    best_gain = g;
                }
            }
            const int64_t g0 = all - drop; /* the gain of every untouched part */
            if (g0 > 0 && g0 >= best_gain) {
                for (int64_t k = 0; k < nparts && !(g0 == best_gain && k > best); k++) {
                    if (k == a || seen[k])
                        continue;
                    int fits = 1;
                    for (int64_t j = 0; j < ncon && fits; j++)
                        fits = pw[k * ncon + j] + w[j] <= limit[j];
                    if (fits) {
                        best = k;
                        best_gain = g0;
                        break;
                    }
                }
            }
            for (int64_t i = 0; i < nt; i++)
                seen[touched[i]] = 0;
            if (best < 0)
                continue;
            for (int64_t j = 0; j < deg; j++) {
                const int64_t e = vn[j], base = np->off[e];
                int64_t *sp = spart + base, *sc = scount + base;
                const int64_t sa = ks->aslot[j];
                if (np->woff[e] >= 0) {
                    int64_t *where = np->where + np->woff[e];
                    if (--sc[sa] == 0) /* a leaves e */
                        dense_swap(sp, sc, where, sa, --np->lam[e]);
                    int64_t sb = where[best];
                    if (sc[sb] == 0) { /* best joins e */
                        dense_swap(sp, sc, where, sb, np->lam[e]);
                        sb = np->lam[e]++;
                    }
                    sc[sb]++;
                    continue;
                }
                int64_t sb = 0;
                while (sb < np->lam[e] && sp[sb] != best)
                    sb++;
                if (sb < np->lam[e]) {
                    sc[sb]++;
                    if (--sc[sa] == 0) { /* a leaves e: the last slot fills the gap */
                        const int64_t last = --np->lam[e];
                        sp[sa] = sp[last];
                        sc[sa] = sc[last];
                    }
                } else if (sc[sa] == 1) { /* v was a's only pin on e */
                    sp[sa] = best;
                } else {
                    sc[sa]--;
                    sp[np->lam[e]] = best;
                    sc[np->lam[e]++] = 1;
                }
            }
            for (int64_t j = 0; j < ncon; j++) {
                pw[a * ncon + j] -= w[j];
                pw[best * ncon + j] += w[j];
            }
            part[v] = best;
            moved = 1;
        }
        if (!moved)
            break;
    }
}

/* ------------------------------------------------------------------
 * The front half of the V-cycle: heavy-connectivity matching and the
 * two initial bisections.
 *
 * Bit-identity contract with repro.hypergraph.coarsen._hcm_match and
 * repro.hypergraph.initial.greedy_growing / random_bisection:
 *
 * - float scores and gains are summed in the reference's order: the
 *   visited vertex's valid nets in ascending net id (the order of
 *   nets[xnets[v]:xnets[v+1]]), then each net's pins in stored order;
 * - ties break toward the smaller vertex id, as the reference's
 *   argmax over a column-sorted CSR row and its (-gain, id) heap do;
 * - weight sums and balance comparisons use the reference's types:
 *   float64 part weight in greedy growing, int64 part weight converted
 *   to float64 for the comparison in the random fill.
 *
 * valid[e] (0/1) marks the nets the kernel reads; contrib[e] is the
 * per-pin share cost(e) / (|e| - 1) of a valid net.
 */

/* Greedy heavy-connectivity matching over the visitation order.
 *
 * An unmatched vertex v sums, for every pin u of its valid nets, the
 * shares of the nets it shares with u into acc[u], then matches the
 * unmatched u != v of largest positive score (smallest id on ties).
 * These sums equal the entries of the reference's Bᵀ·(W·B) score
 * matrix bit for bit: scipy accumulates S[v, u] over the shared nets in
 * ascending net id too.  mate (n) must be -1 on entry and mark (n) 0;
 * acc (n) and touched (n) are workspace.  mark is 0 again on return. */
static void repro_hcm_match(
    int64_t n,
    const int64_t *restrict xpins,
    const int64_t *restrict pins,
    const int64_t *restrict xnets,
    const int64_t *restrict nets,
    const int8_t *restrict valid,
    const double *restrict contrib,
    const int64_t *restrict order,
    int64_t *restrict mate,
    double *restrict acc,
    int64_t *restrict touched,
    int8_t *restrict mark)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        if (mate[v] != -1)
            continue;
        int64_t nt = 0;
        for (int64_t k = xnets[v]; k < xnets[v + 1]; k++) {
            const int64_t e = nets[k];
            if (!valid[e])
                continue;
            const double c = contrib[e];
            for (int64_t p = xpins[e]; p < xpins[e + 1]; p++) {
                const int64_t u = pins[p];
                if (!mark[u]) {
                    mark[u] = 1;
                    acc[u] = 0.0;
                    touched[nt++] = u;
                }
                acc[u] += c;
            }
        }
        int64_t best = -1;
        double best_score = 0.0;
        for (int64_t t = 0; t < nt; t++) {
            const int64_t u = touched[t];
            mark[u] = 0;
            if (u == v || mate[u] != -1)
                continue;
            const double s = acc[u];
            if (s > best_score || (s == best_score && best >= 0 && u < best)) {
                best = u;
                best_score = s;
            }
        }
        if (best >= 0) {
            mate[v] = best;
            mate[best] = v;
        }
    }
}

/* Indexed binary max-heap of candidate vertices keyed by (gain
 * descending, id ascending); pos[u] is u's slot, -1 when absent. */
typedef struct {
    const double *gain;
    int64_t *heap, *pos;
    int64_t size;
} grow_heap;

static int grow_before(const grow_heap *h, int64_t a, int64_t b)
{
    return h->gain[a] > h->gain[b] || (h->gain[a] == h->gain[b] && a < b);
}

static void grow_place(grow_heap *h, int64_t i, int64_t u)
{
    h->heap[i] = u;
    h->pos[u] = i;
}

static void grow_sift_up(grow_heap *h, int64_t i)
{
    const int64_t u = h->heap[i];
    while (i > 0) {
        const int64_t parent = (i - 1) / 2;
        if (!grow_before(h, u, h->heap[parent]))
            break;
        grow_place(h, i, h->heap[parent]);
        i = parent;
    }
    grow_place(h, i, u);
}

static int64_t grow_pop(grow_heap *h)
{
    const int64_t top = h->heap[0];
    h->pos[top] = -1;
    const int64_t last = h->heap[--h->size];
    if (h->size > 0) {
        int64_t i = 0;
        for (;;) {
            int64_t child = 2 * i + 1;
            if (child >= h->size)
                break;
            if (child + 1 < h->size && grow_before(h, h->heap[child + 1], h->heap[child]))
                child++;
            if (!grow_before(h, h->heap[child], last))
                break;
            grow_place(h, i, h->heap[child]);
            i = child;
        }
        grow_place(h, i, last);
    }
    return top;
}

enum { GROW_FREE = 0, GROW_ABSORBED = 1, GROW_RETIRED = 2 };

/* Greedy hypergraph growing of part 0 (part[] must be all 1 on entry).
 *
 * Absorb the candidate of largest gain, or the next free vertex of
 * seed_order when there is none; a vertex whose weight would overrun
 * t0 is retired for good.  Stop once every constraint of part 0
 * reaches t0.  An absorption adds contrib[e] to every pin of the
 * absorbed vertex's valid nets and makes each free pin a candidate.
 * The heap is re-sifted after every single bump: a bump only raises a
 * gain, so sifting that one entry up keeps the heap ordered.
 * Workspace: gain (n float64, zero), heap (n), pos (n, -1), state (n
 * int8, zero), pw0 (ncon float64, zero). */
static void repro_greedy_grow(
    int64_t n,
    int64_t ncon,
    const int64_t *restrict xpins,
    const int64_t *restrict pins,
    const int64_t *restrict xnets,
    const int64_t *restrict nets,
    const int8_t *restrict valid,
    const double *restrict contrib,
    const int64_t *restrict vweights,
    const double *restrict t0,
    const int64_t *restrict seed_order,
    int8_t *restrict part,
    double *restrict gain,
    int64_t *restrict heap,
    int64_t *restrict pos,
    int8_t *restrict state,
    double *restrict pw0)
{
    grow_heap h = {gain, heap, pos, 0};
    int64_t seed_ptr = 0;
    for (;;) {
        int64_t v;
        if (h.size > 0) {
            v = grow_pop(&h);
        } else {
            /* (Re)seed: the next untaken vertex in random order. */
            while (seed_ptr < n && state[seed_order[seed_ptr]] != GROW_FREE)
                seed_ptr++;
            if (seed_ptr >= n)
                break;
            v = seed_order[seed_ptr];
            gain[v] = 0.0;
        }
        const int64_t *w = vweights + v * ncon;
        int fits = 1;
        for (int64_t j = 0; j < ncon && fits; j++)
            fits = pw0[j] + (double)w[j] <= t0[j];
        if (!fits) {
            state[v] = GROW_RETIRED;
            continue;
        }
        state[v] = GROW_ABSORBED;
        part[v] = 0;
        int full = 1;
        for (int64_t j = 0; j < ncon; j++) {
            pw0[j] += (double)w[j];
            full &= pw0[j] >= t0[j];
        }
        if (full)
            break;
        for (int64_t k = xnets[v]; k < xnets[v + 1]; k++) {
            const int64_t e = nets[k];
            if (!valid[e])
                continue;
            const double c = contrib[e];
            for (int64_t p = xpins[e]; p < xpins[e + 1]; p++) {
                const int64_t u = pins[p];
                gain[u] += c;
                if (state[u] != GROW_FREE)
                    continue;
                if (pos[u] < 0) {
                    pos[u] = h.size;
                    heap[h.size++] = u;
                }
                grow_sift_up(&h, pos[u]);
            }
        }
    }
}

/* Random bisection: visit order[] and move each vertex to part 0
 * (part[] all 1 on entry) while its int64 weight keeps every
 * constraint of part 0 at or below t0.  Workspace: pw0 (ncon int64,
 * zero). */
static void repro_random_fill(
    int64_t n,
    int64_t ncon,
    const int64_t *restrict vweights,
    const double *restrict t0,
    const int64_t *restrict order,
    int8_t *restrict part,
    int64_t *restrict pw0)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        const int64_t *w = vweights + v * ncon;
        int fits = 1;
        for (int64_t j = 0; j < ncon && fits; j++)
            fits = (double)(pw0[j] + w[j]) <= t0[j];
        if (!fits)
            continue;
        part[v] = 0;
        for (int64_t j = 0; j < ncon; j++)
            pw0[j] += w[j];
    }
}

/* ------------------------------------------------------------------
 * Contraction: the coarse hypergraph of one matching.
 *
 * Bit-identity contract with repro.hypergraph.coarsen._contract:
 *
 * - cluster ids are dealt in ascending-root order, the root of a pair
 *   being its smaller vertex (np.unique's inverse over the roots);
 * - each coarse net is the sorted set of its pins' cluster ids; nets of
 *   fewer than two are dropped, the rest keep their fine order as live
 *   index i;
 * - a net's key is (size, h1, h2) with the same SplitMix64 content
 *   hashes; nets are ordered by (size, h1, h2, i), which is exactly the
 *   stable np.lexsort((h2, h1, csizes));
 * - net order[k] merges into the group of order[k - 1] when the two are
 *   equal: same key and the same pins.  Each net is compared with its
 *   predecessor, as the reference's dup[] is, so a hash collision can
 *   only miss a merge the reference misses too;
 * - vertex weights and merged net costs are int64 sums.
 */

static uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/* A live net's sort key; start is the offset of its pins. */
typedef struct {
    int64_t size;
    uint64_t h1, h2;
    int64_t index, start;
} net_key;

static int same_key(const net_key *a, const net_key *b)
{
    return a->size == b->size && a->h1 == b->h1 && a->h2 == b->h2;
}

/* (size, h1, h2, index) order. */
static int key_before(const net_key *a, const net_key *b)
{
    if (a->size != b->size)
        return a->size < b->size;
    if (a->h1 != b->h1)
        return a->h1 < b->h1;
    if (a->h2 != b->h2)
        return a->h2 < b->h2;
    return a->index < b->index;
}

/* Bottom-up merge sort of n keys, with tmp as the second buffer;
 * returns whichever of the two holds the sorted keys.  The index in the
 * key makes the order total, so no two keys ever tie. */
static net_key *sort_keys(net_key *a, net_key *tmp, int64_t n)
{
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = key_before(&a[j], &a[i]) ? a[j++] : a[i++];
            while (i < mid)
                tmp[k++] = a[i++];
            while (j < hi)
                tmp[k++] = a[j++];
        }
        net_key *t = a;
        a = tmp;
        tmp = t;
    }
    return a;
}

/* Contract the hypergraph (xpins, pins, ncosts, n x ncon vweights)
 * along the symmetric matching mate (-1: unmatched).
 *
 * Writes cmap (n), the coarse vweights (ncoarse x ncon), both CSR
 * directions of the coarse incidence (cxpins/cpins, and cxnets/cnets
 * with each vertex's nets in ascending order) and the coarse costs;
 * counts receives (ncoarse, coarse nets, coarse pins).  The outputs are
 * sized for the fine hypergraph: n x ncon, nnets + 1, npins, nnets,
 * n + 1 and npins.  Both hashes are ANDed with hash_mask (all ones
 * except in the tests that force collisions).  Workspace: iwork holds
 * 2n + 1 + 2 * npins + 12 * nnets int64. */
static void repro_contract(
    int64_t n,
    int64_t nnets,
    int64_t ncon,
    uint64_t hash_mask,
    const int64_t *restrict xpins,
    const int64_t *restrict pins,
    const int64_t *restrict ncosts,
    const int64_t *restrict vweights,
    const int64_t *restrict mate,
    int64_t *restrict cmap,
    int64_t *restrict cvweights,
    int64_t *restrict cxpins,
    int64_t *restrict cpins,
    int64_t *restrict ccosts,
    int64_t *restrict cxnets,
    int64_t *restrict cnets,
    int64_t *restrict counts,
    int64_t *restrict iwork)
{
    const int64_t npins = xpins[nnets];
    int64_t *mark = iwork, *xv = mark + n, *tpins = xv + n + 1, *vlist = tpins + npins;
    int64_t *live = vlist + npins, *fill = live + nnets;
    net_key *keys = (net_key *)(fill + nnets), *spare = keys + nnets;

    /* Cluster ids: a pair's larger vertex joins its smaller one. */
    int64_t nc = 0;
    for (int64_t v = 0; v < n; v++) {
        const int64_t u = mate[v];
        cmap[v] = u >= 0 && u < v ? cmap[u] : nc++;
    }
    for (int64_t i = 0; i < nc * ncon; i++)
        cvweights[i] = 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < ncon; j++)
            cvweights[cmap[v] * ncon + j] += vweights[v * ncon + j];

    /* Remap and de-duplicate every net (mark[c] == e: c is already in
     * net e); keep those of two or more pins, in fine order, at
     * keys[i].start, and count each cluster's pins in xv. */
    for (int64_t c = 0; c < nc; c++) {
        mark[c] = -1;
        xv[c + 1] = 0;
    }
    xv[0] = 0;
    int64_t nlive = 0, used = 0;
    for (int64_t e = 0; e < nnets; e++) {
        int64_t *net = tpins + used;
        int64_t size = 0;
        for (int64_t p = xpins[e]; p < xpins[e + 1]; p++) {
            const int64_t c = cmap[pins[p]];
            if (mark[c] != e) {
                mark[c] = e;
                net[size++] = c;
            }
        }
        if (size < 2)
            continue;
        for (int64_t i = 0; i < size; i++)
            xv[net[i] + 1]++;
        keys[nlive].size = size;
        keys[nlive].start = used;
        live[nlive++] = e;
        used += size;
    }

    /* Sort every net's pins with two counting passes: list each
     * cluster's nets (vlist), then walk the clusters in ascending order
     * appending each to its nets. */
    for (int64_t c = 0; c < nc; c++) {
        xv[c + 1] += xv[c];
        mark[c] = xv[c];
    }
    for (int64_t i = 0; i < nlive; i++) {
        fill[i] = keys[i].start;
        for (int64_t p = fill[i]; p < fill[i] + keys[i].size; p++)
            vlist[mark[tpins[p]]++] = i;
    }
    for (int64_t c = 0; c < nc; c++)
        for (int64_t q = xv[c]; q < xv[c + 1]; q++)
            tpins[fill[vlist[q]]++] = c;

    /* Hash the sorted nets and order them by (size, h1, h2, index). */
    for (int64_t i = 0; i < nlive; i++) {
        const int64_t *net = tpins + keys[i].start;
        uint64_t x = 0, s = 0;
        for (int64_t j = 0; j < keys[i].size; j++) {
            const uint64_t m = mix64(((uint64_t)net[j] + 1) * 0x9E3779B97F4A7C15ULL
                                     ^ ((uint64_t)j + 1) * 0xBF58476D1CE4E5B9ULL);
            x ^= m;
            s += m;
        }
        keys[i].h1 = x & hash_mask;
        keys[i].h2 = s & hash_mask;
        keys[i].index = i;
    }
    keys = sort_keys(keys, spare, nlive);

    /* Emit one net per group of equal neighbours, costs summed. */
    int64_t ng = 0, ncp = 0;
    cxpins[0] = 0;
    for (int64_t i = 0; i < nlive; i++) {
        const net_key *a = &keys[i];
        const int64_t *net = tpins + a->start;
        if (i > 0) {
            const net_key *b = &keys[i - 1];
            int equal = same_key(a, b);
            for (int64_t p = 0; equal && p < a->size; p++)
                equal = net[p] == tpins[b->start + p];
            if (equal) {
                ccosts[ng - 1] += ncosts[live[a->index]];
                continue;
            }
        }
        for (int64_t p = 0; p < a->size; p++)
            cpins[ncp + p] = net[p];
        ncp += a->size;
        ccosts[ng] = ncosts[live[a->index]];
        cxpins[++ng] = ncp;
    }

    /* The vertex -> net direction by counting sort, nets ascending per
     * vertex (mark becomes the fill cursor). */
    for (int64_t c = 0; c <= nc; c++)
        cxnets[c] = 0;
    for (int64_t p = 0; p < ncp; p++)
        cxnets[cpins[p] + 1]++;
    for (int64_t c = 0; c < nc; c++) {
        cxnets[c + 1] += cxnets[c];
        mark[c] = cxnets[c];
    }
    for (int64_t g = 0; g < ng; g++)
        for (int64_t p = cxpins[g]; p < cxpins[g + 1]; p++)
            cnets[mark[cpins[p]]++] = g;
    counts[0] = nc;
    counts[1] = ng;
    counts[2] = ncp;
}

/* ------------------------------------------------------------ block DM
 *
 * repro_block_dm: the coarse Dulmage-Mendelsohn decomposition of every
 * block of a batch (repro.dm.batch.batched_block_dm).  Block b owns the
 * local rows row_off[b]..row_off[b+1] and columns col_off[b]..
 * col_off[b+1] of the concatenated label arrays.  The row-major
 * adjacency of global row r is adj[rptr[r]..rptr[r+1]], the column-major
 * one of global column c is cadj[cptr[c]..cptr[c+1]]; both hold
 * block-local ids.
 *
 * Per block: a maximum matching, then the alternating-path labels of
 * repro.dm.decomposition.coarse_labels.  A column is horizontal iff
 * some maximum matching leaves it unmatched, and the rows of H are the
 * neighbours of its columns (V likewise from the rows), so the labels
 * do not depend on which maximum matching is found (Pothen & Fan,
 * "Computing the block triangular form of a sparse matrix", ACM TOMS
 * 1990); neither does its size.  The matching here is theirs too:
 * depth-first augmenting searches with lookahead, not Hopcroft-Karp.
 */

enum { DM_H = 0, DM_S = 1, DM_V = 2 };

/* Maximum matching of one block (mr/mc: the column of each row and the
 * row of each column, -1 when unmatched); returns its size.  Phases of
 * depth-first searches from every free row share one set of visited
 * columns (visit[v] == phase) and end when a phase augments nothing:
 * with the matching unchanged through that phase, a column visited by
 * an earlier failed search cannot lead to a free column.  The
 * lookahead cursor la[u] only moves forward, since a matched column
 * never becomes free again; the first phase's lookahead is a greedy
 * start.  stack/via hold the searched rows and the columns left
 * through. */
static int64_t dm_match(
    int64_t nr, int64_t nc, const int64_t *rptr, const int64_t *adj,
    int64_t *mr, int64_t *mc, int64_t *la, int64_t *cur, int64_t *stack,
    int64_t *via, int64_t *visit, int64_t *stamp)
{
    for (int64_t u = 0; u < nr; u++) {
        mr[u] = -1;
        la[u] = rptr[u];
    }
    for (int64_t v = 0; v < nc; v++)
        mc[v] = -1;
    int64_t size = 0, grew = 1;
    while (grew) {
        grew = 0;
        const int64_t phase = ++*stamp;
        for (int64_t root = 0; root < nr; root++) {
            if (mr[root] != -1)
                continue;
            int64_t depth = 0, end = -1;
            stack[0] = root;
            cur[root] = rptr[root];
            while (depth >= 0) {
                const int64_t u = stack[depth];
                while (la[u] < rptr[u + 1]) {
                    const int64_t v = adj[la[u]++];
                    if (mc[v] == -1) {
                        end = v;
                        break;
                    }
                }
                if (end >= 0)
                    break;
                /* Every column of u is matched now: descend through an
                 * unvisited one to its row, or give u up. */
                int64_t w = -1;
                while (cur[u] < rptr[u + 1]) {
                    const int64_t v = adj[cur[u]++];
                    if (visit[v] != phase) {
                        visit[v] = phase;
                        via[depth] = v;
                        w = mc[v];
                        break;
                    }
                }
                if (w >= 0) {
                    stack[++depth] = w;
                    cur[w] = rptr[w];
                } else {
                    depth--;
                }
            }
            if (end < 0)
                continue;
            /* Augment: each row on the path takes the column it was
             * left through, the last one the free column. */
            for (int64_t d = depth; d >= 0; d--) {
                const int64_t v = d == depth ? end : via[d];
                mr[stack[d]] = v;
                mc[v] = stack[d];
            }
            size++;
            grew = 1;
        }
    }
    return size;
}

/* coarse_labels on one block: H is what alternating paths reach from
 * the free columns, V what they reach from the free rows, the rest S.
 * A label doubles as the visited mark of its own search. */
static void dm_labels(
    int64_t nr, int64_t nc, const int64_t *rptr, const int64_t *adj,
    const int64_t *cptr, const int64_t *cadj, const int64_t *mr,
    const int64_t *mc, int8_t *rl, int8_t *cl, int64_t *queue)
{
    for (int64_t u = 0; u < nr; u++)
        rl[u] = DM_S;
    for (int64_t v = 0; v < nc; v++)
        cl[v] = DM_S;

    int64_t head = 0, tail = 0;
    for (int64_t v = 0; v < nc; v++)
        if (mc[v] == -1) {
            cl[v] = DM_H;
            queue[tail++] = v;
        }
    while (head < tail) {
        const int64_t v = queue[head++];
        for (int64_t p = cptr[v]; p < cptr[v + 1]; p++) {
            const int64_t u = cadj[p];
            if (rl[u] == DM_H)
                continue;
            rl[u] = DM_H;
            const int64_t w = mr[u];
            if (w != -1 && cl[w] != DM_H) {
                cl[w] = DM_H;
                queue[tail++] = w;
            }
        }
    }

    head = tail = 0;
    for (int64_t u = 0; u < nr; u++)
        if (mr[u] == -1) {
            rl[u] = DM_V;
            queue[tail++] = u;
        }
    while (head < tail) {
        const int64_t u = queue[head++];
        for (int64_t p = rptr[u]; p < rptr[u + 1]; p++) {
            const int64_t v = adj[p];
            if (cl[v] == DM_V)
                continue;
            cl[v] = DM_V;
            const int64_t w = mc[v];
            if (w != -1 && rl[w] != DM_V) {
                rl[w] = DM_V;
                queue[tail++] = w;
            }
        }
    }
}

/* Labels (int8: 0 H, 1 S, 2 V) and matching size of every block.
 * iwork holds 6 * maxr + 3 * maxc int64, maxr / maxc being the most
 * rows / columns of one block. */
EXPORT void repro_block_dm(
    int64_t nblocks,
    const int64_t *restrict row_off,
    const int64_t *restrict col_off,
    const int64_t *restrict rptr,
    const int64_t *restrict adj,
    const int64_t *restrict cptr,
    const int64_t *restrict cadj,
    int8_t *restrict row_label,
    int8_t *restrict col_label,
    int64_t *restrict matching_size,
    int64_t *restrict iwork)
{
    int64_t maxr = 0, maxc = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        if (row_off[b + 1] - row_off[b] > maxr)
            maxr = row_off[b + 1] - row_off[b];
        if (col_off[b + 1] - col_off[b] > maxc)
            maxc = col_off[b + 1] - col_off[b];
    }
    int64_t *mr = iwork, *la = mr + maxr, *cur = la + maxr, *stack = cur + maxr;
    int64_t *via = stack + maxr, *mc = via + maxr, *visit = mc + maxc;
    int64_t *queue = visit + maxc;
    for (int64_t v = 0; v < maxc; v++)
        visit[v] = 0;
    int64_t stamp = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t r0 = row_off[b], nr = row_off[b + 1] - r0;
        const int64_t c0 = col_off[b], nc = col_off[b + 1] - c0;
        matching_size[b] = dm_match(
            nr, nc, rptr + r0, adj, mr, mc, la, cur, stack, via, visit, &stamp);
        dm_labels(nr, nc, rptr + r0, adj, cptr + c0, cadj, mr, mc,
                  row_label + r0, col_label + c0, queue);
    }
}

/* ------------------------------------------------------- s2D flip loop
 *
 * repro_s2d_flip: the greedy rounds of Algorithm 1
 * (repro.core.s2d.s2d_heuristic).  Visiting blocks in `order`, a block
 * not yet flipped with a nonempty H flips (chosen[b] = 1, h_size[b]
 * nonzeros move from its row part's load to its column part's) when
 * the column part's load stays within max(w_max, w_lim), w_max being
 * the largest load after the previous flip.  Rounds repeat while one
 * flips something, at most max_rounds; returns the number run.  Loads
 * stay int64 and convert to double for the comparison, as NumPy
 * compares an int64 load with the float cap. */
EXPORT int64_t repro_s2d_flip(
    int64_t nblocks,
    int64_t nparts,
    int64_t max_rounds,
    double w_lim,
    const int64_t *restrict order,
    const int64_t *restrict row_part,
    const int64_t *restrict col_part,
    const int64_t *restrict h_size,
    int64_t *restrict loads,
    int8_t *restrict chosen)
{
    int64_t w_max = 0;
    for (int64_t k = 0; k < nparts; k++)
        if (k == 0 || loads[k] > w_max)
            w_max = loads[k];
    int64_t rounds = 0, changed = 1;
    while (changed && rounds < max_rounds) {
        changed = 0;
        rounds++;
        for (int64_t i = 0; i < nblocks; i++) {
            const int64_t b = order[i], h = h_size[b];
            if (chosen[b] || h == 0)
                continue;
            const double wm = (double)w_max;
            const double cap = w_lim > wm ? w_lim : wm;
            if ((double)(loads[col_part[b]] + h) <= cap) {
                chosen[b] = 1;
                loads[col_part[b]] += h;
                loads[row_part[b]] -= h;
                w_max = loads[0];
                for (int64_t k = 1; k < nparts; k++)
                    if (loads[k] > w_max)
                        w_max = loads[k];
                changed = 1;
            }
        }
    }
    return rounds;
}

/* ------------------------------------------------ recursive bisection
 *
 * repro_partition_kway runs the whole recursive bisection of
 * repro.hypergraph.partitioner.partition_kway in one call: every
 * subproblem's V-cycle, the splits and the K-way polish.  repro_bisect
 * runs one V-cycle (repro.hypergraph.bisect.multilevel_bisect).  Both
 * are built from the stage loops above, each called where the Python
 * driver calls its NumPy stage, so the partitions are the Python
 * driver's bit for bit:
 *
 * - the random streams are NumPy's.  PCG64's step and XSL-RR output,
 *   its buffered next_uint32 (random_interval draws 32-bit values for
 *   bounds below 2**32, which Generator.permutation's shuffle uses),
 *   Lemire's bounded 64-bit draw (spawn's integers(0, 2**63 - 1)) and
 *   SeedSequence(int) -> PCG64 seeding (spawn's default_rng(seed)) are
 *   ported below.  Python passes the root generator's state in and
 *   reads the final state back, has_uint32 and uinteger included;
 * - the floating-point inputs are the Python driver's: side targets
 *   t0 = total * (k0 / nparts) and t1 = total - t0, per-pin shares
 *   cost / (|e| - 1) computed only for the nets that qualify, the
 *   K-way limit (total / nparts) * (1 + epsilon), the level tolerance
 *   computed by the caller;
 * - a split filters both CSR directions of the parent in order, so each
 *   side's nets keep their pins in order and each vertex its nets in
 *   ascending order, as Hypergraph() builds them, without a sort.
 *
 * These two drivers are the exception to "no kernel allocates": their
 * scratch (root-sized stage workspace, coarse levels, the subproblem
 * arena) is malloc'd inside the call and freed before it returns, on
 * every path.  A failed allocation returns DRV_ENOMEM.  Subproblems
 * waiting for their V-cycle are disjoint slices of one arena: a split
 * writes both sides above its parent and moves them down over it.
 *
 * With an event log (ev_ints != NULL), every stage writes one event:
 * (stage, a, b) into ev_ints and its CLOCK_MONOTONIC start and end (the
 * clock of repro.obs.now) into ev_times, in the order the Python driver
 * opens its spans.  A full log stops recording and the call returns
 * DRV_ELOG after finishing its work.
 *
 * Threads (repro_partition_kway only).  Once a split leaves two sides
 * that both need a V-cycle, the sides share nothing: each has its own
 * hypergraph slice, its own stream (pcg_seeded of a seed drawn before
 * the split) and its own vertices' entries of part.  So side 1 can run
 * on a thread of its own, a fork, while the calling thread keeps side
 * 0, and the parts are those of the serial run.  A fork is a whole
 * driver: its own workspace sized for its subtree, its own pool and
 * arena, its own event log.  The thread budget (nthreads at the root)
 * is halved at each fork, so at most nthreads threads run, and the
 * subtrees below the first ceil(log2 nthreads) levels run where their
 * parents ran.  The root's stream is written back after its V-cycle,
 * before the first fork; the K-way polish runs after the last join.
 * Forks are joined newest first before recurse_c returns, on error
 * paths too, and their events appended to their parent's log: forks
 * are made top down along the path the calling thread keeps, so that
 * is the order of a serial run.  A fork that fails reports its status
 * at the join; a fork whose thread cannot be created runs at the join
 * on the calling thread.  No thread outlives the call, so the process
 * is single-threaded whenever Python runs and may fork.
 */

#define DRV_OK 0
#define DRV_ENOMEM 1
#define DRV_ELOG 2

/* Stage ids of the event log (bisect.py's _STAGES). */
enum { EV_COARSEN, EV_MATCH, EV_CONTRACT, EV_INITIAL, EV_REFINE, EV_KWAY };

/* NumPy's PCG64 (numpy/random/src/pcg64). */
typedef struct {
    __uint128_t state, inc;
    int has32;
    uint32_t u32;
} pcg64;

static void pcg_step(pcg64 *g)
{
    const __uint128_t mult =
        ((__uint128_t)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    g->state = g->state * mult + g->inc;
}

static uint64_t pcg_next64(pcg64 *g)
{
    pcg_step(g);
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned r = (unsigned)(g->state >> 122);
    return (x >> r) | (x << ((64 - r) & 63));
}

static uint32_t pcg_next32(pcg64 *g)
{
    if (g->has32) {
        g->has32 = 0;
        return g->u32;
    }
    const uint64_t next = pcg_next64(g);
    g->has32 = 1;
    g->u32 = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* random_interval: uniform on [0, max] by masked rejection. */
static uint64_t pcg_interval(pcg64 *g, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xFFFFFFFFULL) {
        while ((value = (pcg_next32(g) & mask)) > max)
            ;
    } else {
        while ((value = (pcg_next64(g) & mask)) > max)
            ;
    }
    return value;
}

/* Generator.permutation(n): arange(n) shuffled from the back. */
static void pcg_permutation(pcg64 *g, int64_t *a, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        a[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        const int64_t j = (int64_t)pcg_interval(g, (uint64_t)i);
        const int64_t t = a[i];
        a[i] = a[j];
        a[j] = t;
    }
}

/* Lemire's bounded draw on [0, rng] (rng < 2**64 - 1). */
static uint64_t pcg_bounded(pcg64 *g, uint64_t rng)
{
    const uint64_t excl = rng + 1;
    __uint128_t m = (__uint128_t)pcg_next64(g) * excl;
    uint64_t left = (uint64_t)m;
    if (left < excl) {
        const uint64_t threshold = (UINT64_MAX - rng) % excl;
        while (left < threshold) {
            m = (__uint128_t)pcg_next64(g) * excl;
            left = (uint64_t)m;
        }
    }
    return (uint64_t)(m >> 64);
}

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931E8875U;
    value *= *hash_const;
    value ^= value >> 16;
    return value;
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xCA01F9DDU * x - 0x4973F715U * y;
    r ^= r >> 16;
    return r;
}

/* default_rng(seed): SeedSequence(seed) mixes the seed's 32-bit words
 * into a pool of four, generate_state(4, uint64) draws the PCG64 seed
 * and increment from it. */
static pcg64 pcg_seeded(uint64_t seed)
{
    const uint32_t entropy[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    const int nwords = seed >> 32 ? 2 : 1;
    uint32_t pool[4], hash_const = 0x43B0D7E5U;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < nwords ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash_const));
    uint32_t words[8], hash_b = 0x8B51F9DDU;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hash_b;
        hash_b *= 0x58F38DEDU;
        v *= hash_b;
        words[i] = v ^ (v >> 16);
    }
    uint64_t w[4];
    for (int k = 0; k < 4; k++)
        w[k] = words[2 * k] | (uint64_t)words[2 * k + 1] << 32;
    pcg64 g = {0, ((((__uint128_t)w[2] << 64) | w[3]) << 1) | 1, 0, 0};
    pcg_step(&g);
    g.state += ((__uint128_t)w[0] << 64) | w[1];
    pcg_step(&g);
    return g;
}

/* spawn's draw: integers(0, 2**63 - 1) is a bounded draw on [0, 2**63 - 2]. */
#define SPAWN_MAX ((UINT64_C(1) << 63) - 2)

/* The state words Python passes: state and inc (high, low), has_uint32,
 * uinteger. */
static pcg64 pcg_load(const uint64_t *s)
{
    pcg64 g = {((__uint128_t)s[0] << 64) | s[1], ((__uint128_t)s[2] << 64) | s[3],
               s[4] != 0, (uint32_t)s[5]};
    return g;
}

static void pcg_store(const pcg64 *g, uint64_t *s)
{
    s[0] = (uint64_t)(g->state >> 64);
    s[1] = (uint64_t)g->state;
    s[2] = (uint64_t)(g->inc >> 64);
    s[3] = (uint64_t)g->inc;
    s[4] = (uint64_t)g->has32;
    s[5] = g->u32;
}

typedef struct {
    int64_t *ints; /* cap rows of (stage, a, b); NULL: not tracing */
    double *times; /* cap rows of (t0, t1) */
    int64_t cap, count;
    int full;
} ev_log;

/* repro.obs.now: CLOCK_MONOTONIC nanoseconds as double seconds. */
static double mono_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

/* Open a stage event; returns its row, -1 when not recorded. */
static int64_t ev_open(ev_log *log, int64_t stage)
{
    if (log->ints == NULL)
        return -1;
    if (log->count == log->cap) {
        log->full = 1;
        return -1;
    }
    const int64_t i = log->count++;
    log->ints[3 * i] = stage;
    log->ints[3 * i + 1] = log->ints[3 * i + 2] = -1;
    log->times[2 * i] = mono_now();
    return i;
}

/* Close event i with counters a and b (-1: none). */
static void ev_close(ev_log *log, int64_t i, int64_t a, int64_t b)
{
    if (i < 0)
        return;
    log->ints[3 * i + 1] = a;
    log->ints[3 * i + 2] = b;
    log->times[2 * i + 1] = mono_now();
}

/* Every allocation of one driver call, freed together (or back to a
 * mark, at the end of each V-cycle). */
typedef struct {
    void **ptr;
    int64_t n, cap;
} mem_pool;

static void *pool_alloc(mem_pool *p, int64_t count, size_t size)
{
    if (p->n == p->cap) {
        const int64_t cap = p->cap ? 2 * p->cap : 64;
        void **grown = realloc(p->ptr, (size_t)cap * sizeof(void *));
        if (grown == NULL)
            return NULL;
        p->ptr = grown;
        p->cap = cap;
    }
    void *a = malloc(count > 0 ? (size_t)count * size : 1);
    if (a != NULL)
        p->ptr[p->n++] = a;
    return a;
}

static void pool_release(mem_pool *p, int64_t mark)
{
    while (p->n > mark)
        free(p->ptr[--p->n]);
}

#define ALLOC(d, ptr, count)                                              \
    do {                                                                  \
        if (((ptr) = pool_alloc(&(d)->mem, (count), sizeof *(ptr))) == NULL) \
            return DRV_ENOMEM;                                            \
    } while (0)

/* A hypergraph as the stage kernels read it; npins = xpins[nnets]. */
typedef struct {
    int64_t n, nnets;
    const int64_t *xpins, *pins, *xnets, *nets, *vweights, *ncosts;
} hgraph;

/* One driver call's configuration and stage workspace, sized for the
 * root: every coarse level and every split side is at most as large
 * in vertices, nets and pins. */
typedef struct {
    int64_t ncon, ninitial, fm_passes, max_net_size, max_levels, stall_fraction;
    uint64_t hash_mask;
    mem_pool mem;
    ev_log log;
    /* matching and contraction */
    int64_t *order, *mate, *touched, *cmap, *cvw, *cxpins, *cpins, *ccosts, *cxnets,
        *cnets, *counts, *ciwork;
    double *acc, *contrib;
    int8_t *valid, *mark;
    /* initial bisections */
    int64_t *heap, *pos, *pw0i;
    double *ggain, *gpw0;
    int8_t *state;
    /* FM: state, workspace, the top level's valid-net adjacency */
    int64_t *pc, *gain, *vipt, *vnets;
    double *pw, *dwork;
    int8_t *bwork, *part[2];
} driver;

/* The stage workspace for a root of n vertices, nnets nets and npins pins. */
static int driver_alloc(driver *d, int64_t n, int64_t nnets, int64_t npins)
{
    const int64_t ncon = d->ncon;
    ALLOC(d, d->order, n);
    ALLOC(d, d->mate, n);
    ALLOC(d, d->touched, n);
    ALLOC(d, d->cmap, n);
    ALLOC(d, d->cvw, n * ncon);
    ALLOC(d, d->cxpins, nnets + 1);
    ALLOC(d, d->cpins, npins);
    ALLOC(d, d->ccosts, nnets);
    ALLOC(d, d->cxnets, n + 1);
    ALLOC(d, d->cnets, npins);
    ALLOC(d, d->counts, 3);
    ALLOC(d, d->ciwork, 2 * n + 1 + 2 * npins + 12 * nnets);
    ALLOC(d, d->acc, n);
    ALLOC(d, d->contrib, nnets);
    ALLOC(d, d->valid, nnets);
    ALLOC(d, d->mark, n);
    ALLOC(d, d->heap, n);
    ALLOC(d, d->pos, n);
    ALLOC(d, d->pw0i, ncon);
    ALLOC(d, d->ggain, n);
    ALLOC(d, d->gpw0, ncon);
    ALLOC(d, d->state, n);
    ALLOC(d, d->pc, 2 * nnets);
    ALLOC(d, d->gain, n);
    ALLOC(d, d->vipt, n + 1);
    ALLOC(d, d->vnets, npins);
    ALLOC(d, d->pw, 2 * ncon);
    ALLOC(d, d->dwork, (n + 2) * ncon);
    ALLOC(d, d->bwork, 3 * n + 2 * ncon);
    ALLOC(d, d->part[0], n);
    ALLOC(d, d->part[1], n);
    memset(d->mark, 0, (size_t)n);
    return DRV_OK;
}

/* The per-pin shares of the nets of lo..hi pins (as the matching and
 * greedy growing compute them): valid[e] and, for valid nets only,
 * contrib[e] = cost / (|e| - 1).  Returns whether any net is valid. */
static int net_shares(const hgraph *h, int64_t lo, int64_t hi, int8_t *valid,
                      double *contrib)
{
    int any = 0;
    for (int64_t e = 0; e < h->nnets; e++) {
        const int64_t size = h->xpins[e + 1] - h->xpins[e];
        valid[e] = size >= lo && size <= hi;
        contrib[e] = valid[e] ? (double)h->ncosts[e] / (double)(size - 1) : 0.0;
        any |= valid[e];
    }
    return any;
}

/* refine.py's _context: the vertex -> valid-net adjacency is the
 * incidence itself unless some net has fewer than two pins (only ever a
 * top level); then it is filtered into d->vipt / d->vnets. */
static void valid_adjacency(driver *d, const hgraph *h, const int64_t **vipt,
                            const int64_t **vnets)
{
    *vipt = h->xnets;
    *vnets = h->nets;
    int64_t e = 0;
    while (e < h->nnets && h->xpins[e + 1] - h->xpins[e] >= 2)
        e++;
    if (e == h->nnets)
        return;
    int64_t k = 0;
    d->vipt[0] = 0;
    for (int64_t v = 0; v < h->n; v++) {
        for (int64_t i = h->xnets[v]; i < h->xnets[v + 1]; i++) {
            const int64_t f = h->nets[i];
            if (h->xpins[f + 1] - h->xpins[f] >= 2)
                d->vnets[k++] = f;
        }
        d->vipt[v + 1] = k;
    }
    *vipt = d->vipt;
    *vnets = d->vnets;
}

/* refine.py's fm_refine on h: part is refined in place, *cut receives
 * the final cut (0 for a hypergraph without vertices or nets). */
static int fm_refine_c(driver *d, const hgraph *h, int8_t *part, const double *targets,
                       double epsilon, int64_t *cut)
{
    *cut = 0;
    const int64_t n = h->n, ncon = d->ncon;
    if (n == 0 || h->nnets == 0)
        return DRV_OK;
    const int64_t *vipt, *vnets;
    valid_adjacency(d, h, &vipt, &vnets);
    int64_t gmax = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t s = 0;
        for (int64_t i = vipt[v]; i < vipt[v + 1]; i++)
            s += h->ncosts[vnets[i]];
        if (s > gmax)
            gmax = s;
    }
    if (gmax > INT64_MAX / 32)
        return DRV_ENOMEM; /* the bucket array alone would not fit */
    int64_t *iwork = malloc((size_t)(2 * gmax + 1 + 7 * n + 2 * ncon) * sizeof *iwork);
    if (iwork == NULL)
        return DRV_ENOMEM;
    *cut = repro_fm_passes(n, h->nnets, ncon, gmax, d->fm_passes, d->stall_fraction,
                           epsilon, h->xpins, h->pins, h->ncosts, vipt, vnets,
                           h->vweights, targets, part, d->pc, d->gain, d->pw, iwork,
                           d->dwork, d->bwork);
    free(iwork);
    return DRV_OK;
}

/* coarsen.py's coarsen_once on cur: the matching (a visitation order is
 * drawn only when some net scores) and the contraction.  The coarse
 * level and cur's cluster map go into one block of the pool. */
static int coarsen_c(driver *d, const hgraph *cur, pcg64 *rng, hgraph *coarse,
                     const int64_t **cmap)
{
    const int64_t n = cur->n, ncon = d->ncon;
    int64_t ev = ev_open(&d->log, EV_MATCH);
    for (int64_t v = 0; v < n; v++)
        d->mate[v] = -1;
    if (net_shares(cur, 2, d->max_net_size, d->valid, d->contrib)) {
        pcg_permutation(rng, d->order, n);
        repro_hcm_match(n, cur->xpins, cur->pins, cur->xnets, cur->nets, d->valid,
                        d->contrib, d->order, d->mate, d->acc, d->touched, d->mark);
    }
    ev_close(&d->log, ev, -1, -1);

    ev = ev_open(&d->log, EV_CONTRACT);
    repro_contract(n, cur->nnets, ncon, d->hash_mask, cur->xpins, cur->pins, cur->ncosts,
                   cur->vweights, d->mate, d->cmap, d->cvw, d->cxpins, d->cpins,
                   d->ccosts, d->cxnets, d->cnets, d->counts, d->ciwork);
    const int64_t nc = d->counts[0], nn = d->counts[1], np = d->counts[2];
    int64_t *block;
    ALLOC(d, block, n + nc * ncon + 2 * nn + 1 + nc + 1 + 2 * np);
    int64_t *a = block;
#define TAKE(dst, src, count)                                 \
    do {                                                      \
        memcpy(a, (src), (size_t)(count) * sizeof(int64_t)); \
        (dst) = a;                                            \
        a += (count);                                         \
    } while (0)
    TAKE(*cmap, d->cmap, n);
    TAKE(coarse->vweights, d->cvw, nc * ncon);
    TAKE(coarse->xpins, d->cxpins, nn + 1);
    TAKE(coarse->pins, d->cpins, np);
    TAKE(coarse->ncosts, d->ccosts, nn);
    TAKE(coarse->xnets, d->cxnets, nc + 1);
    TAKE(coarse->nets, d->cnets, np);
#undef TAKE
    coarse->n = nc;
    coarse->nnets = nn;
    ev_close(&d->log, ev, -1, -1);
    return DRV_OK;
}

/* initial.py's greedy_growing (even trials) or random_bisection (odd)
 * on the coarsest level h into part. */
static void initial_c(driver *d, const hgraph *h, int64_t trial, const double *targets,
                      pcg64 *rng, int8_t *part)
{
    const int64_t n = h->n, ncon = d->ncon;
    if (trial % 2 == 1) {
        pcg_permutation(rng, d->order, n);
        memset(part, 1, (size_t)n);
        for (int64_t j = 0; j < ncon; j++)
            d->pw0i[j] = 0;
        repro_random_fill(n, ncon, h->vweights, targets, d->order, part, d->pw0i);
        return;
    }
    if (n == 0)
        return; /* greedy_growing draws no seed order for an empty level */
    net_shares(h, 2, INT64_MAX, d->valid, d->contrib);
    pcg_permutation(rng, d->order, n);
    memset(part, 1, (size_t)n);
    for (int64_t v = 0; v < n; v++) {
        d->ggain[v] = 0.0;
        d->pos[v] = -1;
        d->state[v] = 0;
    }
    for (int64_t j = 0; j < ncon; j++)
        d->gpw0[j] = 0.0;
    repro_greedy_grow(n, ncon, h->xpins, h->pins, h->xnets, h->nets, d->valid,
                      d->contrib, h->vweights, targets, d->order, part, d->ggain,
                      d->heap, d->pos, d->state, d->gpw0);
}

/* bisect.py's multilevel_bisect: coarsen while the level has more than
 * coarsen_to vertices (at most max_levels levels; a level that keeps
 * over 95% of the vertices is dropped and ends the coarsening), try
 * ninitial initial bisections of the coarsest level, each from its own
 * spawned stream and FM-refined, keep the first of least cut, and
 * project it back level by level refining at each.  Writes the 0/1
 * sides of top into out and the final cut into *cut. */
static int vcycle(driver *d, const hgraph *top, const double *targets, double epsilon,
                  int64_t coarsen_to, pcg64 *rng, int8_t *out, int64_t *cut)
{
    const int64_t mark = d->mem.n;
    hgraph *lv;
    const int64_t **cmaps;
    uint64_t *seeds;
    ALLOC(d, lv, d->max_levels + 1);
    ALLOC(d, cmaps, d->max_levels);
    ALLOC(d, seeds, d->ninitial);
    lv[0] = *top;
    int64_t nlev = 0;
    const int64_t ev = ev_open(&d->log, EV_COARSEN);
    while (lv[nlev].n > coarsen_to && nlev < d->max_levels) {
        const int st = coarsen_c(d, &lv[nlev], rng, &lv[nlev + 1], &cmaps[nlev]);
        if (st != DRV_OK)
            return st;
        if ((double)lv[nlev + 1].n > 0.95 * (double)lv[nlev].n)
            break; /* matching stalled; further levels would be no-ops */
        nlev++;
    }
    ev_close(&d->log, ev, 1, nlev);

    const hgraph *c = &lv[nlev];
    int8_t *best = d->part[0], *trial = d->part[1];
    int64_t best_cut = INT64_MAX;
    for (int64_t t = 0; t < d->ninitial; t++)
        seeds[t] = pcg_bounded(rng, SPAWN_MAX);
    for (int64_t t = 0; t < d->ninitial; t++) {
        pcg64 trial_rng = pcg_seeded(seeds[t]);
        int64_t e = ev_open(&d->log, EV_INITIAL);
        initial_c(d, c, t, targets, &trial_rng, trial);
        ev_close(&d->log, e, -1, -1);
        e = ev_open(&d->log, EV_REFINE);
        int64_t cut0;
        const int st = fm_refine_c(d, c, trial, targets, epsilon, &cut0);
        ev_close(&d->log, e, -1, -1);
        if (st != DRV_OK)
            return st;
        if (cut0 < best_cut) {
            int8_t *t8 = best;
            best = trial;
            trial = t8;
            best_cut = cut0;
        }
    }

    const int64_t e = ev_open(&d->log, EV_REFINE);
    for (int64_t l = nlev - 1; l >= 0; l--) {
        const int64_t *cmap = cmaps[l];
        for (int64_t v = 0; v < lv[l].n; v++)
            trial[v] = best[cmap[v]];
        int8_t *t8 = best;
        best = trial;
        trial = t8;
        const int st = fm_refine_c(d, &lv[l], best, targets, epsilon, &best_cut);
        if (st != DRV_OK)
            return st;
    }
    ev_close(&d->log, e, -1, -1);
    memcpy(out, best, (size_t)top->n);
    *cut = best_cut;
    pool_release(&d->mem, mark);
    return DRV_OK;
}

/* A subproblem of the recursion: its hypergraph, the root id of each
 * of its vertices, its part range, stream and thread budget, and its
 * slice of the arena (size 0 for the root, which is the caller's
 * arrays). */
typedef struct {
    hgraph h;
    const int64_t *ids;
    int64_t npins, nparts, offset, base, size, threads;
    pcg64 rng;
} task;

/* Arena words of a split side: ids, vweights, xpins, pins, ncosts,
 * xnets, nets, laid out in that order by side_bind. */
static int64_t side_words(int64_t n, int64_t nnets, int64_t npins, int64_t ncon)
{
    return n * (2 + ncon) + 2 * nnets + 2 * npins + 2;
}

/* Point t's arrays into its arena slice (again after the slice moves). */
static void side_bind(task *t, int64_t *arena, int64_t ncon)
{
    int64_t *a = arena + t->base;
    const int64_t n = t->h.n, nn = t->h.nnets, npins = t->npins;
    t->ids = a;
    t->h.vweights = a += n;
    t->h.xpins = a += n * ncon;
    t->h.pins = a += nn + 1;
    t->h.ncosts = a += npins;
    t->h.xnets = a += nn;
    t->h.nets = a + n + 1;
}

/* The nets of side s of h (cnt[2e + s] of net e's pins on side s):
 * those with two or more pins there.  netmap[e] receives e's index on
 * the side or -1, *np the side's pins; returns the side's net count. */
static int64_t side_nets(const hgraph *h, const int64_t *cnt, int s, int64_t *netmap,
                         int64_t *np)
{
    int64_t nn = 0;
    *np = 0;
    for (int64_t e = 0; e < h->nnets; e++) {
        const int64_t c = cnt[2 * e + s];
        netmap[e] = c >= 2 ? nn++ : -1;
        *np += c >= 2 ? c : 0;
    }
    return nn;
}

/* partitioner.py's _split_side for side s of t (sides[] over t's
 * vertices, vmap[v] = v's index within its side), written at arena[at]:
 * the nn nets of np pins side_nets found (netmap), restricted to the
 * side's pins, in order; both CSR directions are filtered in order.
 * Returns the side's task. */
static task split_side(const task *t, const int8_t *sides, int s, int64_t ns, int64_t nn,
                       int64_t np, const int64_t *vmap, const int64_t *netmap,
                       int64_t *arena, int64_t at, int64_t ncon)
{
    const hgraph *h = &t->h;
    task side = {{ns, nn, NULL, NULL, NULL, NULL, NULL, NULL}, NULL, np, 0, 0, at,
                 side_words(ns, nn, np, ncon), 1, {0, 0, 0, 0}};
    side_bind(&side, arena, ncon);
    int64_t *ids = (int64_t *)side.ids, *vw = (int64_t *)side.h.vweights;
    int64_t *xp = (int64_t *)side.h.xpins, *pn = (int64_t *)side.h.pins;
    int64_t *nc = (int64_t *)side.h.ncosts, *xn = (int64_t *)side.h.xnets;
    int64_t *nt = (int64_t *)side.h.nets;
    int64_t j = 0, q = 0;
    xn[0] = 0;
    for (int64_t v = 0; v < h->n; v++) {
        if (sides[v] != s)
            continue;
        ids[j] = t->ids[v];
        for (int64_t k = 0; k < ncon; k++)
            vw[j * ncon + k] = h->vweights[v * ncon + k];
        for (int64_t i = h->xnets[v]; i < h->xnets[v + 1]; i++)
            if (netmap[h->nets[i]] >= 0)
                nt[q++] = netmap[h->nets[i]];
        xn[++j] = q;
    }
    q = 0;
    xp[0] = 0;
    for (int64_t e = 0; e < h->nnets; e++) {
        if (netmap[e] < 0)
            continue;
        for (int64_t p = h->xpins[e]; p < h->xpins[e + 1]; p++)
            if (sides[h->pins[p]] == s)
                pn[q++] = vmap[h->pins[p]];
        nc[netmap[e]] = h->ncosts[e];
        xp[netmap[e] + 1] = q;
    }
    return side;
}

/* _lambda_cost: the connectivity-1 cost of the sets np.  A net of one
 * pin, which has no set, costs nothing either way. */
static int64_t lambda_cost(const hgraph *h, const net_parts *np)
{
    int64_t cost = 0;
    for (int64_t e = 0; e < h->nnets; e++)
        if (np->lam[e] > 0)
            cost += h->ncosts[e] * (np->lam[e] - 1);
    return cost;
}

/* kway.py's kway_greedy_refine on the root after the recursion; with
 * traced set, *before and *after receive the connectivity-1 cost
 * around the passes.  kway.py keeps a dense nnets x nparts pin-count
 * table; here each net holds a set (net_parts), so the memory is
 * O(nnets + pins + nparts), whatever nparts is. */
static int kway_c(driver *d, const hgraph *h, int64_t *part, int64_t nparts,
                  double epsilon, int64_t max_passes, int traced, int64_t *before,
                  int64_t *after)
{
    const int64_t n = h->n, nn = h->nnets, ncon = d->ncon;
    const int64_t *vipt, *vnets;
    valid_adjacency(d, h, &vipt, &vnets);
    net_parts np;
    kway_scratch ks;
    int64_t *total;
    double *pw, *limit;
    int8_t *cut;
    ALLOC(d, np.off, nn + 1);
    ALLOC(d, np.lam, nn);
    ALLOC(d, np.woff, nn);
    int64_t nwhere = 0;
    np.off[0] = 0;
    for (int64_t e = 0; e < nn; e++) {
        const int64_t size = h->xpins[e + 1] - h->xpins[e];
        const int dense = size >= 2 && 2 * size >= nparts;
        np.off[e + 1] = np.off[e] + (size < 2 ? 0 : dense ? nparts : size);
        np.woff[e] = dense ? nwhere : -1;
        nwhere += dense ? nparts : 0;
    }
    int64_t max_deg = 0;
    for (int64_t v = 0; v < n; v++)
        max_deg = vipt[v + 1] - vipt[v] > max_deg ? vipt[v + 1] - vipt[v] : max_deg;
    ALLOC(d, np.part, np.off[nn]);
    ALLOC(d, np.count, np.off[nn]);
    ALLOC(d, np.where, nwhere);
    ALLOC(d, ks.gains, nparts);
    ALLOC(d, ks.touched, nparts);
    ALLOC(d, ks.aslot, max_deg);
    ALLOC(d, ks.seen, nparts);
    ALLOC(d, total, ncon);
    ALLOC(d, pw, nparts * ncon);
    ALLOC(d, limit, ncon);
    ALLOC(d, cut, nn);
    memset(ks.seen, 0, (size_t)nparts);
    /* gains doubles as each part's slot while a sparse net's set is
     * built. */
    for (int64_t k = 0; k < nparts; k++)
        ks.gains[k] = -1;
    for (int64_t e = 0; e < nn; e++) {
        int64_t *sp = np.part + np.off[e], *sc = np.count + np.off[e];
        int64_t lam = 0;
        if (np.woff[e] >= 0) {
            int64_t *where = np.where + np.woff[e];
            for (int64_t k = 0; k < nparts; k++)
                sc[k] = 0;
            for (int64_t p = h->xpins[e]; p < h->xpins[e + 1]; p++)
                sc[part[h->pins[p]]]++;
            for (int64_t k = 0; k < nparts; k++)
                lam += sc[k] > 0;
            int64_t in = 0, out = lam;
            for (int64_t k = 0; k < nparts; k++)
                sp[sc[k] > 0 ? in++ : out++] = k;
            for (int64_t s = 0; s < nparts; s++)
                where[sp[s]] = s;
            for (int64_t s = 0; s < nparts; s++)
                ks.gains[s] = sc[s];
            for (int64_t s = 0; s < nparts; s++)
                sc[s] = ks.gains[sp[s]];
            for (int64_t k = 0; k < nparts; k++)
                ks.gains[k] = -1;
        } else if (np.off[e + 1] > np.off[e]) {
            for (int64_t p = h->xpins[e]; p < h->xpins[e + 1]; p++) {
                const int64_t k = part[h->pins[p]];
                if (ks.gains[k] < 0) {
                    ks.gains[k] = lam;
                    sp[lam] = k;
                    sc[lam++] = 0;
                }
                sc[ks.gains[k]]++;
            }
            for (int64_t s = 0; s < lam; s++)
                ks.gains[sp[s]] = -1;
        }
        np.lam[e] = lam;
    }
    if (traced)
        *before = lambda_cost(h, &np);
    for (int64_t i = 0; i < nparts * ncon; i++)
        pw[i] = 0.0;
    for (int64_t j = 0; j < ncon; j++)
        total[j] = 0;
    double *wfloat = d->dwork;
    for (int64_t v = 0; v < n; v++)
        for (int64_t j = 0; j < ncon; j++) {
            const int64_t w = h->vweights[v * ncon + j];
            wfloat[v * ncon + j] = (double)w;
            pw[part[v] * ncon + j] += (double)w;
            total[j] += w;
        }
    for (int64_t j = 0; j < ncon; j++)
        limit[j] = (double)total[j] / (double)nparts * (1.0 + epsilon);
    repro_kway_passes(n, nn, nparts, ncon, max_passes, vipt, vnets, h->ncosts, wfloat, limit,
                      part, &np, pw, &ks, cut);
    if (traced)
        *after = lambda_cost(h, &np);
    return DRV_OK;
}

static int64_t ceil_log2(int64_t k)
{
    int64_t d = 0;
    while (d < 63 && (INT64_C(1) << d) < k)
        d++;
    return d;
}

/* The arena of a recursion from a root of n vertices, npins pins and
 * nparts parts.  The pending sides and the current task are disjoint
 * pieces of the root, each with at most half as many nets as pins (a
 * fork's root is one of them); the two sides of a split take at most
 * as much again.  The stack holds one side per level of the split tree
 * plus two, and each piece adds two words of offsets. */
static int64_t arena_words(int64_t n, int64_t npins, int64_t nparts, int64_t ncon)
{
    return 2 * side_words(n, npins / 2, npins, ncon) + 4 * (ceil_log2(nparts) + 3);
}

/* A subtree on a thread of its own: a driver of its own (workspace,
 * pool, event log) and its task in an arena from that pool.  A
 * driver's forks form a list, newest first, which recurse_c joins
 * before it returns. */
typedef struct fork_job {
    driver d;
    task t;
    int64_t *arena, *part, coarsen_to;
    double eps_level;
    int st, started;
    pthread_t thread;
    struct fork_job *next;
} fork_job;

static int recurse_c(driver *d, task first, int64_t *arena, int64_t coarsen_to,
                     double eps_level, pcg64 *root_rng, int64_t *part);

static void *fork_main(void *arg)
{
    fork_job *f = arg;
    f->st = driver_alloc(&f->d, f->t.h.n, f->t.h.nnets, f->t.npins);
    if (f->st == DRV_OK)
        f->st = recurse_c(&f->d, f->t, f->arena, f->coarsen_to, f->eps_level, NULL,
                          f->part);
    return NULL;
}

static void fork_free(fork_job *f)
{
    pool_release(&f->d.mem, 0);
    free(f->d.mem.ptr);
    free(f);
}

/* A fork for a subtree of n vertices, npins pins and nparts parts with
 * d's configuration, pushed onto *forks; NULL when out of memory.  Its
 * event log, when d traces, holds every V-cycle the subtree can run
 * (ops.kway_event_rows without the polish's row). */
static fork_job *fork_new(const driver *d, int64_t n, int64_t npins, int64_t nparts,
                          int64_t coarsen_to, double eps_level, int64_t *part,
                          fork_job **forks)
{
    fork_job *f = calloc(1, sizeof *f);
    if (f == NULL)
        return NULL;
    driver *c = &f->d;
    c->ncon = d->ncon;
    c->ninitial = d->ninitial;
    c->fm_passes = d->fm_passes;
    c->max_net_size = d->max_net_size;
    c->max_levels = d->max_levels;
    c->stall_fraction = d->stall_fraction;
    c->hash_mask = d->hash_mask;
    f->arena = pool_alloc(&c->mem, arena_words(n, npins, nparts, d->ncon), sizeof(int64_t));
    int ok = f->arena != NULL;
    if (ok && d->log.ints != NULL) {
        const int64_t depth = ceil_log2(nparts);
        const int64_t cycles = n * depth < nparts - 1 ? n * depth : nparts - 1;
        c->log.cap = cycles * (2 + 2 * d->max_levels + 2 * d->ninitial);
        c->log.ints = pool_alloc(&c->mem, 3 * c->log.cap, sizeof(int64_t));
        c->log.times = pool_alloc(&c->mem, 2 * c->log.cap, sizeof(double));
        ok = c->log.ints != NULL && c->log.times != NULL;
    }
    if (!ok) {
        fork_free(f);
        return NULL;
    }
    f->coarsen_to = coarsen_to;
    f->eps_level = eps_level;
    f->part = part;
    f->next = *forks;
    *forks = f;
    return f;
}

/* Append the events of from to log, as far as log has room. */
static void ev_append(ev_log *log, const ev_log *from)
{
    if (log->ints == NULL)
        return;
    int64_t m = from->count;
    if (m > log->cap - log->count) {
        m = log->cap - log->count;
        log->full = 1;
    }
    memcpy(log->ints + 3 * log->count, from->ints, (size_t)(3 * m) * sizeof *log->ints);
    memcpy(log->times + 2 * log->count, from->times, (size_t)(2 * m) * sizeof *log->times);
    log->count += m;
    log->full |= from->full;
}

/* partitioner.py's _recurse from the task first with an explicit
 * stack, side 0 before side 1 as the Python recursion goes.  *root_rng
 * (when not NULL) ends as first's stream ends: after its V-cycle and
 * its spawn(rng, 2).
 *
 * A task whose thread budget is above one and whose two sides both
 * need a V-cycle hands side 1 to a fork with half the budget and keeps
 * side 0 with the rest.  The sides share nothing: each has its own
 * hypergraph slice and its own stream, spawned before the split, and
 * writes its own vertices' parts; so the parts do not depend on the
 * budget.  Forks are spawned top down along the path this thread
 * keeps, so joining them newest first appends their events in the
 * order a serial run writes them. */
static int recurse_loop(driver *d, task first, int64_t *arena, int64_t coarsen_to,
                        double eps_level, pcg64 *root_rng, int64_t *part,
                        fork_job **forks)
{
    const int64_t ncon = d->ncon;
    task *stack;
    int64_t *vmap, *cnt, *netmap;
    int8_t *sides;
    double *targets;
    ALLOC(d, stack, ceil_log2(first.nparts) + 3);
    ALLOC(d, vmap, first.h.n);
    ALLOC(d, cnt, 2 * first.h.nnets);
    ALLOC(d, netmap, first.h.nnets);
    ALLOC(d, sides, first.h.n);
    ALLOC(d, targets, 2 * ncon);
    int64_t ntask = 0, top = first.base + first.size;
    stack[ntask++] = first;
    while (ntask > 0) {
        task t = stack[--ntask];
        pcg64 *rng_out = root_rng;
        root_rng = NULL;
        const hgraph *h = &t.h;
        if (t.nparts == 1 || h->n == 0) {
            for (int64_t v = 0; v < h->n; v++)
                part[t.ids[v]] = t.offset;
            top = t.base;
            continue;
        }
        const int64_t k[2] = {(t.nparts + 1) / 2, t.nparts - (t.nparts + 1) / 2};
        for (int64_t j = 0; j < ncon; j++) {
            int64_t total = 0;
            for (int64_t v = 0; v < h->n; v++)
                total += h->vweights[v * ncon + j];
            targets[j] = (double)total * ((double)k[0] / (double)t.nparts);
            targets[ncon + j] = (double)total - targets[j];
        }
        const int64_t to = coarsen_to > 8 * t.nparts ? coarsen_to : 8 * t.nparts;
        int64_t cut;
        const int st = vcycle(d, h, targets, eps_level, to, &t.rng, sides, &cut);
        if (st != DRV_OK)
            return st;
        const uint64_t seed[2] = {pcg_bounded(&t.rng, SPAWN_MAX),
                                  pcg_bounded(&t.rng, SPAWN_MAX)};
        if (rng_out != NULL)
            *rng_out = t.rng;

        int64_t ns[2] = {0, 0};
        for (int64_t v = 0; v < h->n; v++)
            vmap[v] = ns[sides[v]]++;
        for (int64_t e = 0; e < h->nnets; e++) {
            cnt[2 * e] = cnt[2 * e + 1] = 0;
            for (int64_t p = h->xpins[e]; p < h->xpins[e + 1]; p++)
                cnt[2 * e + sides[h->pins[p]]]++;
        }
        const int fork = t.threads > 1 && k[0] > 1 && ns[0] > 0 && k[1] > 1 && ns[1] > 0;
        /* Both sides above t, side 1 below side 0, then moved down over
         * t: side 0 ends on top of the arena and of the stack.  A forked
         * side 1 goes to its fork's arena instead. */
        task kids[2];
        int nkids = 0;
        int64_t at = top;
        for (int s = 1; s >= 0; s--) {
            const int64_t off = t.offset + (s ? k[0] : 0);
            if (k[s] == 1 || ns[s] == 0) {
                for (int64_t v = 0; v < h->n; v++)
                    if (sides[v] == s)
                        part[t.ids[v]] = off;
                continue;
            }
            int64_t np;
            const int64_t nn = side_nets(h, cnt, s, netmap, &np);
            fork_job *f = NULL;
            if (fork && s == 1) {
                f = fork_new(d, ns[s], np, k[s], coarsen_to, eps_level, part, forks);
                if (f == NULL)
                    return DRV_ENOMEM;
            }
            task side = split_side(&t, sides, s, ns[s], nn, np, vmap, netmap,
                                   f ? f->arena : arena, f ? 0 : at, ncon);
            side.nparts = k[s];
            side.offset = off;
            side.rng = pcg_seeded(seed[s]);
            side.threads = !fork ? t.threads : s ? t.threads / 2 : t.threads - t.threads / 2;
            if (f != NULL) {
                f->t = side;
                f->started = pthread_create(&f->thread, NULL, fork_main, f) == 0;
                continue;
            }
            at += side.size;
            kids[nkids++] = side;
        }
        memmove(arena + t.base, arena + top, (size_t)(at - top) * sizeof *arena);
        for (int i = 0; i < nkids; i++) {
            kids[i].base -= top - t.base;
            side_bind(&kids[i], arena, ncon);
            stack[ntask++] = kids[i];
        }
        top = t.base + (at - top);
    }
    return DRV_OK;
}

/* recurse_loop, then its forks joined newest first: each one's status
 * and events join d's.  A fork whose thread could not be created runs
 * here, unless the call has already failed. */
static int recurse_c(driver *d, task first, int64_t *arena, int64_t coarsen_to,
                     double eps_level, pcg64 *root_rng, int64_t *part)
{
    fork_job *f = NULL;
    int st = recurse_loop(d, first, arena, coarsen_to, eps_level, root_rng, part, &f);
    while (f != NULL) {
        fork_job *next = f->next;
        if (f->started)
            pthread_join(f->thread, NULL);
        else if (st == DRV_OK)
            fork_main(f);
        if (st == DRV_OK) {
            st = f->st;
            ev_append(&d->log, &f->d.log);
        }
        fork_free(f);
        f = next;
    }
    return st;
}

/* The recursion from the root h, spread over nthreads threads. */
static int partition_c(driver *d, const hgraph *h, int64_t nparts, int64_t nthreads,
                       int64_t coarsen_to, double eps_level, pcg64 *rng, int64_t *part)
{
    const int64_t npins = h->xpins[h->nnets];
    int64_t *ids, *arena;
    ALLOC(d, ids, h->n);
    ALLOC(d, arena, arena_words(h->n, npins, nparts, d->ncon));
    for (int64_t v = 0; v < h->n; v++)
        ids[v] = v;
    const task first = {*h, ids, npins, nparts, 0, 0, 0, nthreads > 1 ? nthreads : 1, *rng};
    return recurse_c(d, first, arena, coarsen_to, eps_level, rng, part);
}

/* The driver's configuration, event log and stage workspace for the
 * root hypergraph h; driver_finish frees the workspace and gives the
 * entry's status. */
static int driver_start(driver *d, const hgraph *h, int64_t ncon, int64_t ninitial,
                        int64_t fm_passes, int64_t max_net_size, int64_t max_levels,
                        int64_t stall_fraction, uint64_t hash_mask, int64_t ev_cap,
                        int64_t *ev_ints, double *ev_times)
{
    memset(d, 0, sizeof *d);
    d->ncon = ncon;
    d->ninitial = ninitial;
    d->fm_passes = fm_passes;
    d->max_net_size = max_net_size;
    d->max_levels = max_levels;
    d->stall_fraction = stall_fraction;
    d->hash_mask = hash_mask;
    d->log.ints = ev_ints;
    d->log.times = ev_times;
    d->log.cap = ev_cap;
    return driver_alloc(d, h->n, h->nnets, h->xpins[h->nnets]);
}

static int64_t driver_finish(driver *d, int st, int64_t *ev_count)
{
    pool_release(&d->mem, 0);
    free(d->mem.ptr);
    *ev_count = d->log.count;
    return st != DRV_OK ? st : d->log.full ? DRV_ELOG : DRV_OK;
}

/* One V-cycle (multilevel_bisect) of the hypergraph (xpins, pins,
 * xnets, nets, vweights, ncosts) toward the 2 x ncon side targets:
 * part (n, int8) receives the sides, *cut the cut-net cost.  rng_state
 * as in repro_partition_kway.  Returns DRV_OK, DRV_ENOMEM or DRV_ELOG
 * (*ev_count events written either way). */
EXPORT int64_t repro_bisect(
    int64_t n, int64_t nnets, int64_t ncon, int64_t coarsen_to, int64_t ninitial,
    int64_t fm_passes, int64_t max_net_size, int64_t max_levels, int64_t stall_fraction,
    double epsilon, uint64_t hash_mask,
    const int64_t *xpins, const int64_t *pins, const int64_t *xnets, const int64_t *nets,
    const int64_t *vweights, const int64_t *ncosts, const double *targets,
    uint64_t *rng_state, int8_t *part, int64_t *cut,
    int64_t ev_cap, int64_t *ev_ints, double *ev_times, int64_t *ev_count)
{
    const hgraph h = {n, nnets, xpins, pins, xnets, nets, vweights, ncosts};
    driver d;
    pcg64 rng = pcg_load(rng_state);
    int st = driver_start(&d, &h, ncon, ninitial, fm_passes, max_net_size, max_levels,
                          stall_fraction, hash_mask, ev_cap, ev_ints, ev_times);
    if (st == DRV_OK)
        st = vcycle(&d, &h, targets, epsilon, coarsen_to, &rng, part, cut);
    pcg_store(&rng, rng_state);
    return driver_finish(&d, st, ev_count);
}

/* The whole of partition_kway: recursive bisection of the hypergraph
 * (xpins, pins, xnets, nets, vweights, ncosts) into nparts parts, each
 * bisection a V-cycle at tolerance eps_level coarsening to
 * max(coarsen_to, 8 * its part count), on up to nthreads threads (the
 * parts do not depend on it; below 1 counts as 1), then up to
 * kway_passes K-way passes at tolerance epsilon (none when nparts is
 * 1).  part (n, int64) receives the parts.  rng_state holds the
 * generator's state words (state and inc high and low, has_uint32,
 * uinteger), advanced in place.  The kway event carries the
 * connectivity-1 cost before and after the passes, -1 when the polish
 * had nothing to do.  Returns DRV_OK, DRV_ENOMEM or DRV_ELOG (*ev_count
 * events written either way); every thread has been joined. */
EXPORT int64_t repro_partition_kway(
    int64_t n, int64_t nnets, int64_t ncon, int64_t nparts, int64_t coarsen_to,
    int64_t ninitial, int64_t fm_passes, int64_t max_net_size, int64_t kway_passes,
    int64_t max_levels, int64_t stall_fraction, double eps_level, double epsilon,
    uint64_t hash_mask,
    const int64_t *xpins, const int64_t *pins, const int64_t *xnets, const int64_t *nets,
    const int64_t *vweights, const int64_t *ncosts,
    uint64_t *rng_state, int64_t *part,
    int64_t ev_cap, int64_t *ev_ints, double *ev_times, int64_t *ev_count, int64_t nthreads)
{
    const hgraph h = {n, nnets, xpins, pins, xnets, nets, vweights, ncosts};
    driver d;
    pcg64 rng = pcg_load(rng_state);
    int st = driver_start(&d, &h, ncon, ninitial, fm_passes, max_net_size, max_levels,
                          stall_fraction, hash_mask, ev_cap, ev_ints, ev_times);
    if (st == DRV_OK)
        st = partition_c(&d, &h, nparts, nthreads, coarsen_to, eps_level, &rng, part);
    if (st == DRV_OK && nparts > 1 && kway_passes > 0) {
        const int64_t ev = ev_open(&d.log, EV_KWAY);
        int64_t before = -1, after = -1;
        if (n > 0 && nnets > 0)
            st = kway_c(&d, &h, part, nparts, epsilon, kway_passes, ev_ints != NULL,
                        &before, &after);
        ev_close(&d.log, ev, before, after);
    }
    pcg_store(&rng, rng_state);
    return driver_finish(&d, st, ev_count);
}
