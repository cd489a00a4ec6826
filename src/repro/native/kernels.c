/* Native kernels of three layers:
 *
 * - the compiled SpMV runtime: repro_plan_apply runs a whole
 *   CommPlan apply (repro.runtime.plan) in one call, and the two
 *   index-order scatter loops serve the serial shard replay
 *   (repro.runtime.shards);
 * - the per-vertex and per-move loops of the hypergraph partitioner:
 *   the FM set-up and pass loop of repro.hypergraph.refine, the K-way
 *   greedy polish of repro.hypergraph.kway, the heavy-connectivity
 *   matching and the contraction of repro.hypergraph.coarsen and the
 *   two initial bisections of repro.hypergraph.initial;
 * - Algorithm 1's combinatorics (bottom of this file): repro_block_dm
 *   takes the coarse Dulmage-Mendelsohn labels of every block of a
 *   batch in one call (repro.dm.batch), and repro_s2d_flip runs the
 *   greedy flip rounds of repro.core.s2d.s2d_heuristic.  The DM kernel
 *   finds its own maximum matching, not the one the NumPy reference's
 *   Hopcroft-Karp finds; the labels and the matching size are the same
 *   for every maximum matching, so its outputs are identical.
 *
 * No kernel allocates: callers pass every output and workspace array.
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
 *
 * With r right-hand sides (x of shape (ncols, r), row-major) every
 * column runs the single-column order, so batched results equal
 * sequential single applies bitwise.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* Bumped whenever an exported signature changes; the loader refuses a
 * cached .so whose ABI does not match (stale-cache guard). */
EXPORT int64_t repro_native_abi(void) { return 6; }

/* acc[idx[i]] += vals[i] * x[cols[i]]  — the fused expand/compute
 * inner loop: gather x, multiply by the nonzero value, scatter-add
 * into the group (or output-row) accumulator. */
EXPORT void repro_gather_mul_scatter(
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
EXPORT void repro_scatter_add(
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

/* repro_gather_mul_scatter over r columns into a zeroed acc of m rows. */
static void gather_mul_scatter_r(
    int64_t n, int64_t r, int64_t m,
    const double *restrict vals, const int64_t *restrict cols,
    const double *restrict x, const int64_t *restrict idx,
    double *restrict acc)
{
    zero(acc, m * r);
    if (r == 1) {
        repro_gather_mul_scatter(n, vals, cols, x, idx, acc);
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        const double v = vals[i];
        const double *restrict xrow = x + cols[i] * r;
        double *restrict arow = acc + idx[i] * r;
        for (int64_t j = 0; j < r; j++)
            arow[j] += v * xrow[j];
    }
}

/* repro_scatter_add over r columns into a zeroed acc of m rows. */
static void scatter_add_r(
    int64_t n, int64_t r, int64_t m,
    const int64_t *restrict idx, const double *restrict vals,
    double *restrict acc)
{
    zero(acc, m * r);
    if (r == 1) {
        repro_scatter_add(n, idx, vals, acc);
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        const double *restrict vrow = vals + i * r;
        double *restrict arow = acc + idx[i] * r;
        for (int64_t j = 0; j < r; j++)
            arow[j] += vrow[j];
    }
}

/* One CommPlan apply, y = A x, over r right-hand sides (x is (ncols, r)
 * and y (nrows, r), row-major):
 *
 *   psums[g1[i]] += pre_vals[i] * x[pre_cols[i]]       (ng1 groups)
 *   fsums[g2[i]] += psums[i]        when g2 != NULL     (ng2 groups)
 *   y[row] = sum of main_vals[k] * x[main_cols[k]]
 *            over k in ptr[row]..ptr[row+1]              (ptr != NULL)
 *   y[fold_rows[i]] += fsums[i]     through a zeroed nrows buffer,
 *                                   then one y += fold (nfold > 0)
 *
 * Two-phase plans have no main section (ptr == NULL): y is the fold
 * scatter alone.  work holds ng1*r doubles for psums, then ng2*r for
 * fsums when g2 != NULL, then nrows*r for the fold buffer when there
 * is a main section and nfold > 0; every piece is zeroed here.  The
 * group indices are compact (each below its group count).
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
    int64_t r,
    const double *restrict x,
    double *restrict y,
    double *restrict work)
{
    double *psums = work;
    gather_mul_scatter_r(npre, r, ng1, pre_vals, pre_cols, x, g1, psums);
    const double *fsums = psums;
    work += ng1 * r;
    if (g2 != NULL) {
        scatter_add_r(ng1, r, ng2, g2, psums, work);
        fsums = work;
        work += ng2 * r;
    }
    if (ptr == NULL) {
        scatter_add_r(nfold, r, nrows, fold_rows, fsums, y);
        return;
    }
    if (r == 1) {
        for (int64_t row = 0; row < nrows; row++) {
            double s = 0.0;
            for (int64_t k = ptr[row]; k < ptr[row + 1]; k++)
                s += main_vals[k] * x[main_cols[k]];
            y[row] = s;
        }
    } else {
        for (int64_t row = 0; row < nrows; row++) {
            double *restrict yrow = y + row * r;
            zero(yrow, r);
            for (int64_t k = ptr[row]; k < ptr[row + 1]; k++) {
                const double v = main_vals[k];
                const double *restrict xrow = x + main_cols[k] * r;
                for (int64_t j = 0; j < r; j++)
                    yrow[j] += v * xrow[j];
            }
        }
    }
    if (nfold > 0) {
        /* A separate accumulator, then one vector add: the association
         * of the NumPy y += np.bincount(fold_rows, fsums). */
        scatter_add_r(nfold, r, nrows, fold_rows, fsums, work);
        for (int64_t i = 0; i < nrows * r; i++)
            y[i] += work[i];
    }
}

/* ------------------------------------------------------------------
 * Hypergraph partitioner: the FM pass loop and the K-way greedy polish.
 *
 * Bit-identity contract with the NumPy loops they replace
 * (repro.hypergraph.refine._fm_passes_numpy and
 * repro.hypergraph.kway._kway_passes_numpy, which stay as the reference
 * and as the fallback without a compiler):
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
EXPORT int64_t repro_fm_passes(
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

/* Up to max_passes greedy K-way passes under the connectivity-1 metric.
 *
 * A pass visits the vertices on a net spanning >= 2 parts at the pass
 * start, in ascending order.  Each moves to the first part of maximal
 * positive gain whose weights stay within limit, if any.  part (n),
 * pc (nnets x nparts pin counts) and pw (nparts x ncon part weights)
 * are updated in place; wfloat is n x ncon, limit ncon.  Workspace:
 * gains holds nparts int64, cut nnets int8. */
EXPORT void repro_kway_passes(
    int64_t n,
    int64_t nnets,
    int64_t nparts,
    int64_t ncon,
    int64_t max_passes,
    const int64_t *restrict xnets,
    const int64_t *restrict nets,
    const int64_t *restrict vipt,
    const int64_t *restrict vnets,
    const int64_t *restrict ncosts,
    const double *restrict wfloat,
    const double *restrict limit,
    int64_t *restrict part,
    int64_t *restrict pc,
    double *restrict pw,
    int64_t *restrict gains,
    int8_t *restrict cut)
{
    for (int64_t pass = 0; pass < max_passes; pass++) {
        for (int64_t e = 0; e < nnets; e++) {
            const int64_t *row = pc + e * nparts;
            int64_t lam = 0;
            for (int64_t k = 0; k < nparts && lam < 2; k++)
                lam += row[k] > 0;
            cut[e] = lam >= 2;
        }
        int moved = 0;
        for (int64_t v = 0; v < n; v++) {
            int boundary = 0;
            for (int64_t k = xnets[v]; k < xnets[v + 1] && !boundary; k++)
                boundary = cut[nets[k]];
            if (!boundary || vipt[v] == vipt[v + 1])
                continue;
            const int64_t a = part[v];
            for (int64_t k = 0; k < nparts; k++)
                gains[k] = 0;
            for (int64_t i = vipt[v]; i < vipt[v + 1]; i++) {
                const int64_t e = vnets[i], c = ncosts[e];
                const int64_t *row = pc + e * nparts;
                if (row[a] == 1) { /* lambda drops where the net already is */
                    for (int64_t k = 0; k < nparts; k++)
                        if (row[k] > 0)
                            gains[k] += c;
                } else if (row[a] >= 2) { /* lambda grows where it is not */
                    for (int64_t k = 0; k < nparts; k++)
                        if (row[k] == 0)
                            gains[k] -= c;
                }
            }
            const double *w = wfloat + v * ncon;
            int64_t best = -1, best_gain = 0;
            for (int64_t k = 0; k < nparts; k++) {
                if (k == a || gains[k] <= best_gain)
                    continue;
                int fits = 1;
                for (int64_t j = 0; j < ncon && fits; j++)
                    fits = pw[k * ncon + j] + w[j] <= limit[j];
                if (fits) {
                    best = k;
                    best_gain = gains[k];
                }
            }
            if (best < 0)
                continue;
            for (int64_t i = xnets[v]; i < xnets[v + 1]; i++) {
                pc[nets[i] * nparts + a] -= 1;
                pc[nets[i] * nparts + best] += 1;
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
 * Bit-identity contract with repro.hypergraph.coarsen._hcm_match_numpy
 * and repro.hypergraph.initial._greedy_grow_numpy / _random_fill_numpy:
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
EXPORT void repro_hcm_match(
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
EXPORT void repro_greedy_grow(
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
EXPORT void repro_random_fill(
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
 * Bit-identity contract with repro.hypergraph.coarsen._contract (the
 * reference, and the fallback without a compiler):
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
EXPORT void repro_contract(
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
