/* Native functional kernel: the interpreter of FastFunctionalSim.
 *
 * Executes a decoded program that repro/fastsim/codegen.py lowered into
 * flat operand records, one instruction per step, with the semantics of
 * repro.sim.functional.FunctionalSim.  Its Python front end,
 * repro/fastsim/functional.py, owns every array the kernel writes
 * (registers, counters, per-PC execution counts, trace batches) and the
 * Memory object's page bytearrays, which the kernel reads and writes in
 * place.
 *
 * The kernel never raises.  fk_run() returns:
 *
 *   FK_HALT        the program halted;
 *   FK_BATCH_FULL  the trace buffers are full: drain them and call again;
 *   FK_NEED_PAGE   a store needs a page Memory has not allocated: allocate
 *                  state[S_PAGE], register it with fk_set_page() and call
 *                  again (the store re-executes from its start);
 *   FK_HANDOFF     the next instruction is one the kernel does not model
 *                  (an alignment fault, cvtfi of nan/inf/|x| >= 2^63, swf
 *                  overflow, an unlowered opcode), the pc is out of range
 *                  or the step budget is spent: the front end hands the run to
 *                  the reference interpreter, which executes (or rejects)
 *                  that instruction itself;
 *   FK_NOMEM       an outcome vector could not grow.
 *
 * Every stop happens *before* the instruction it concerns, so the
 * architectural state, the counters and the trace are exactly those the
 * reference has at the same point.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FK_HALT 0
#define FK_BATCH_FULL 1
#define FK_NEED_PAGE 2
#define FK_HANDOFF 3
#define FK_NOMEM 4

/* Lowered record: FK_STRIDE int32 fields per PC; the immediate lives in
 * a parallel int64 array. */
#define L_OP 0
#define L_GUARD 1      /* -1, or cc index << 1 | sense */
#define L_D 2
#define L_A 3
#define L_B 4
#define L_T 5          /* branch / jump target pc */
#define L_SLOT 6       /* branch-outcome slot, -1 for non-branches */
#define FK_STRIDE 7

/* State vector (int64, owned by the front end): inputs, then the counters
 * and buffer fills the kernel keeps between calls. */
enum {
    S_N, S_NSLOTS, S_CAP, S_MAX_STEPS,
    S_PC, S_STEPS, S_ANNULLED, S_BRANCHES, S_TAKEN, S_JUMPS, S_LOADS,
    S_STORES, S_DBZ, S_FENCES, S_NIDX, S_NBR, S_NMEM, S_NANN, S_NORDER,
    S_PAGE, FK_NSTATE
};

/* The opcode table: enum name, ISA mnemonic (the base form of a
 * branch-likely), and operand signature.  Signature characters: dest,
 * src0, src1 -- 'r' int, 'f' fp, 'c' cc register, '-' unused -- then the
 * immediate -- 'i' used modulo 2^32, 's' compared signed (clamped), '-'
 * unused -- then 't' when the op has a static target.  The lowering reads
 * this table through fk_optable(), so it is the only opcode list. */
#define FK_OPS(X) \
    X(HANDOFF, "?", "-----") \
    X(ADD, "add", "rrr--") X(SUB, "sub", "rrr--") \
    X(AND, "and", "rrr--") X(OR, "or", "rrr--") X(XOR, "xor", "rrr--") \
    X(NOR, "nor", "rrr--") X(NOT, "not", "rr---") X(NEG, "neg", "rr---") \
    X(MOV, "mov", "rr---") X(MUL, "mul", "rrr--") X(DIV, "div", "rrr--") \
    X(REM, "rem", "rrr--") \
    X(ADDI, "addi", "rr-i-") X(SUBI, "subi", "rr-i-") \
    X(ANDI, "andi", "rr-i-") X(ORI, "ori", "rr-i-") \
    X(XORI, "xori", "rr-i-") X(MULI, "muli", "rr-i-") \
    X(LI, "li", "r--i-") X(LUI, "lui", "r--i-") \
    X(SLT, "slt", "rrr--") X(SLTU, "sltu", "rrr--") \
    X(SEQ, "seq", "rrr--") X(SNE, "sne", "rrr--") X(SGE, "sge", "rrr--") \
    X(SGT, "sgt", "rrr--") X(SLE, "sle", "rrr--") X(SLTI, "slti", "rr-s-") \
    X(SLL, "sll", "rr-i-") X(SRL, "srl", "rr-i-") X(SRA, "sra", "rr-i-") \
    X(SLLV, "sllv", "rrr--") X(SRLV, "srlv", "rrr--") \
    X(SRAV, "srav", "rrr--") \
    X(LW, "lw", "rr-i-") X(LB, "lb", "rr-i-") X(LBU, "lbu", "rr-i-") \
    X(LH, "lh", "rr-i-") X(LHU, "lhu", "rr-i-") \
    X(SW, "sw", "-rri-") X(SB, "sb", "-rri-") X(SH, "sh", "-rri-") \
    X(LWF, "lwf", "fr-i-") X(SWF, "swf", "-fri-") \
    X(BEQ, "beq", "-rr-t") X(BNE, "bne", "-rr-t") \
    X(BCT, "bct", "-c--t") X(BCF, "bcf", "-c--t") \
    X(BEQZ, "beqz", "-r--t") X(BNEZ, "bnez", "-r--t") \
    X(BLTZ, "bltz", "-r--t") X(BGEZ, "bgez", "-r--t") \
    X(BGTZ, "bgtz", "-r--t") X(BLEZ, "blez", "-r--t") \
    X(J, "j", "----t") X(JAL, "jal", "----t") \
    X(JR, "jr", "-r---") X(JALR, "jalr", "rr---") \
    X(CMPEQ, "cmpeq", "crr--") X(CMPNE, "cmpne", "crr--") \
    X(CMPLT, "cmplt", "crr--") X(CMPLE, "cmple", "crr--") \
    X(CMPGT, "cmpgt", "crr--") X(CMPGE, "cmpge", "crr--") \
    X(CMPI, "cmpi", "cr-s-") \
    X(CAND, "cand", "ccc--") X(COR, "cor", "ccc--") \
    X(CXOR, "cxor", "ccc--") X(CNOT, "cnot", "cc---") \
    X(CMOV, "cmov", "cc---") \
    X(CMOVT, "cmovt", "rrc--") X(CMOVF, "cmovf", "rrc--") \
    X(MOVZ, "movz", "rrr--") X(MOVN, "movn", "rrr--") \
    X(FADD, "fadd", "fff--") X(FSUB, "fsub", "fff--") \
    X(FMUL, "fmul", "fff--") X(FDIV, "fdiv", "fff--") \
    X(FMOV, "fmov", "ff---") X(FNEG, "fneg", "ff---") \
    X(FCMPEQ, "fcmpeq", "cff--") X(FCMPLT, "fcmplt", "cff--") \
    X(FCMPLE, "fcmple", "cff--") \
    X(CVTIF, "cvtif", "fr---") X(CVTFI, "cvtfi", "rf---") \
    X(FENCE, "fence", "-----") X(NOP, "nop", "-----") \
    X(HALT, "halt", "-----")

#define X_ENUM(e, name, sig) OP_##e,
enum { FK_OPS(X_ENUM) FK_NOPS };
#undef X_ENUM

#define X_SIG(e, name, sig) sig,
static const char *const fk_sigs[] = { FK_OPS(X_SIG) };
#undef X_SIG

#define X_ENTRY(e, name, sig) name ":" sig " "
static const char fk_table[] = FK_OPS(X_ENTRY);
#undef X_ENTRY

/* "mnemonic:signature ..." in opcode-id order. */
const char *fk_optable(void)
{
    return fk_table;
}

/* -1 when every record is well formed, else the first bad pc. */
int64_t fk_validate(const int32_t *code, int64_t n, int64_t nslots)
{
    int64_t pc;
    int k;
    for (pc = 0; pc < n; pc++) {
        const int32_t *c = code + pc * FK_STRIDE;
        const char *sig;
        if (c[L_OP] < 0 || c[L_OP] >= FK_NOPS
                || c[L_GUARD] < -1 || c[L_GUARD] > 15)
            return pc;
        sig = fk_sigs[c[L_OP]];
        for (k = 0; k < 3; k++) {
            int32_t v = c[L_D + k];
            int32_t lim = sig[k] == 'c' ? 8 : 32;
            if (sig[k] != '-' && (v < 0 || v >= lim))
                return pc;
        }
        if (sig[4] == 't' && c[L_T] < 0)
            return pc;
        if (c[L_SLOT] < -1 || c[L_SLOT] >= nslots
                || ((c[L_SLOT] >= 0) != (c[L_OP] >= OP_BEQ
                                         && c[L_OP] <= OP_BLEZ)))
            return pc;
    }
    return -1;
}

typedef struct { int64_t pno; uint8_t *page; } fk_page;
typedef struct { uint8_t *bits; int64_t len, cap; } fk_vec;

typedef struct fk_sim {
    const int32_t *code;
    const int64_t *imms;
    int64_t *st;
    int64_t *counts;
    uint32_t *R;
    double *F;
    uint8_t *C;
    /* trace batch buffers (NULL when not tracing) */
    int32_t *idxs;
    int8_t *brs;
    int64_t *mems, *anns;
    /* branch outcomes (NULL when not recording): per slot, plus the
     * slots in first-execution order and the pc each was first seen at */
    fk_vec *vecs;
    int64_t nslots;
    int32_t *order, *first_pc;
    /* Memory's pages: open addressing on the page number */
    fk_page *pages;
    int64_t pmask, npages;
    int64_t last_pno;
    uint8_t *last_page;
} fk_sim;

void fk_free(fk_sim *S)
{
    int64_t i;
    if (!S)
        return;
    if (S->vecs)
        for (i = 0; i < S->nslots; i++)
            free(S->vecs[i].bits);
    free(S->vecs);
    free(S->pages);
    free(S);
}

static int pages_alloc(fk_sim *S, int64_t cap)
{
    int64_t i;
    S->pages = malloc(cap * sizeof(fk_page));
    if (!S->pages)
        return -1;
    for (i = 0; i < cap; i++)
        S->pages[i].pno = -1;
    S->pmask = cap - 1;
    return 0;
}

fk_sim *fk_new(const int32_t *code, const int64_t *imms, int64_t *state,
               int64_t *counts, uint32_t *regs, double *fregs,
               uint8_t *ccregs)
{
    fk_sim *S = calloc(1, sizeof(fk_sim));
    if (!S)
        return NULL;
    S->code = code; S->imms = imms; S->st = state; S->counts = counts;
    S->R = regs; S->F = fregs; S->C = ccregs;
    S->last_pno = -1;
    if (pages_alloc(S, 16) < 0) {
        free(S);
        return NULL;
    }
    return S;
}

void fk_trace_to(fk_sim *S, int32_t *idxs, int8_t *brs, int64_t *mems,
                 int64_t *anns)
{
    S->idxs = idxs; S->brs = brs; S->mems = mems; S->anns = anns;
}

int fk_record_to(fk_sim *S, int32_t *order, int32_t *first_pc)
{
    S->nslots = S->st[S_NSLOTS];
    S->vecs = calloc(S->nslots > 0 ? S->nslots : 1, sizeof(fk_vec));
    S->order = order;
    S->first_pc = first_pc;
    return S->vecs ? 0 : -1;
}

static uint64_t page_hash(int64_t pno)
{
    return ((uint64_t)pno * 0x9E3779B97F4A7C15ULL) >> 32;
}

int fk_set_page(fk_sim *S, int64_t pno, uint8_t *page)
{
    uint64_t i;
    if (2 * (S->npages + 1) > S->pmask + 1) {
        fk_page *old = S->pages;
        int64_t j, cap = S->pmask + 1;
        if (pages_alloc(S, 2 * cap) < 0) {
            S->pages = old;
            return -1;
        }
        S->npages = 0;
        for (j = 0; j < cap; j++)
            if (old[j].pno >= 0)
                fk_set_page(S, old[j].pno, old[j].page);
        free(old);
    }
    for (i = page_hash(pno) & S->pmask; S->pages[i].pno >= 0;
         i = (i + 1) & S->pmask)
        ;
    S->pages[i].pno = pno;
    S->pages[i].page = page;
    S->npages++;
    return 0;
}

/* The page holding addr, or NULL when Memory has not allocated it. */
static uint8_t *page_of(fk_sim *S, uint32_t addr)
{
    int64_t pno = addr >> 12;
    uint64_t i;
    if (pno == S->last_pno)
        return S->last_page;
    for (i = page_hash(pno) & S->pmask; S->pages[i].pno >= 0;
         i = (i + 1) & S->pmask) {
        if (S->pages[i].pno == pno) {
            S->last_pno = pno;
            S->last_page = S->pages[i].page;
            return S->last_page;
        }
    }
    return NULL;
}

static uint8_t read_byte(fk_sim *S, uint32_t addr)
{
    uint8_t *page = page_of(S, addr);
    return page ? page[addr & 4095] : 0;
}

const uint8_t *fk_outcomes(const fk_sim *S, int64_t slot, int64_t *len)
{
    *len = S->vecs[slot].len;
    return S->vecs[slot].bits;
}

static int record(fk_sim *S, int32_t slot, int32_t pc, int taken)
{
    fk_vec *v = &S->vecs[slot];
    if (v->len == v->cap) {
        int64_t cap = v->cap ? 2 * v->cap : 64;
        uint8_t *bits = realloc(v->bits, cap);
        if (!bits)
            return -1;
        v->bits = bits;
        v->cap = cap;
    }
    if (v->len == 0) {
        S->first_pc[slot] = pc;
        S->order[S->st[S_NORDER]++] = slot;
    }
    v->bits[v->len++] = (uint8_t)taken;
    return 0;
}

/* -- the interpreter ------------------------------------------------------ */

#define STATE(X) \
    X(pc, S_PC) X(steps, S_STEPS) X(annulled, S_ANNULLED) \
    X(branches, S_BRANCHES) X(ntaken, S_TAKEN) X(jumps, S_JUMPS) \
    X(loads, S_LOADS) X(stores, S_STORES) X(dbz, S_DBZ) \
    X(fences, S_FENCES) X(ni, S_NIDX) X(nb, S_NBR) X(nm, S_NMEM) \
    X(na, S_NANN)
#define LOAD(v, i) int64_t v = st[i];
#define SAVE(v, i) st[i] = v;

#define SX32(v) ((int64_t)(int32_t)(v))
/* register write: r0 stays zero */
#define W(v) do { if (d) R[d] = (uint32_t)(v); } while (0)
#define STOP(status) do { rc = (status); goto out; } while (0)
#define NEED_PAGE(a) do { st[S_PAGE] = (a) >> 12; STOP(FK_NEED_PAGE); } \
    while (0)

int fk_run(fk_sim *S)
{
    int64_t *st = S->st;
    const int32_t *code = S->code;
    const int64_t *imms = S->imms;
    int64_t *counts = S->counts;
    uint32_t *R = S->R;
    double *F = S->F;
    uint8_t *C = S->C;
    const int64_t n = st[S_N], cap = st[S_CAP], max_steps = st[S_MAX_STEPS];
    const int trace = S->idxs != NULL, rec = S->vecs != NULL;
    int rc;
    STATE(LOAD)

    for (;;) {
        const int32_t *c;
        int32_t op, g, d, a, b;
        int64_t imm, next, addr = -1;
        int taken = -1;
        uint8_t *page;
        uint32_t u;

        if (trace && ni == cap)
            STOP(FK_BATCH_FULL);
        if (steps >= max_steps || pc < 0 || pc >= n)
            STOP(FK_HANDOFF);
        c = code + pc * FK_STRIDE;
        op = c[L_OP];
        if (op == OP_HANDOFF)
            STOP(FK_HANDOFF);
        g = c[L_GUARD];
        if (g >= 0 && C[g >> 1] != (g & 1)) {
            /* annulled: traced and counted, no effect (a halt still
             * halts) */
            annulled++;
            counts[pc]++;
            if (trace) {
                S->idxs[ni++] = (int32_t)pc;
                S->anns[na++] = steps;
            }
            steps++;
            pc++;
            if (op == OP_HALT)
                STOP(FK_HALT);
            continue;
        }
        d = c[L_D]; a = c[L_A]; b = c[L_B];
        imm = imms[pc];
        next = pc + 1;
        switch (op) {
        case OP_ADD: W(R[a] + R[b]); break;
        case OP_SUB: W(R[a] - R[b]); break;
        case OP_AND: W(R[a] & R[b]); break;
        case OP_OR: W(R[a] | R[b]); break;
        case OP_XOR: W(R[a] ^ R[b]); break;
        case OP_NOR: W(~(R[a] | R[b])); break;
        case OP_NOT: W(~R[a]); break;
        case OP_NEG: W(0u - R[a]); break;
        case OP_MOV: W(R[a]); break;
        case OP_MUL: W(SX32(R[a]) * SX32(R[b])); break;
        case OP_DIV:
        case OP_REM:
            /* int64: INT_MIN / -1 is 2^31, masked like the reference */
            if (R[b] == 0) {
                dbz++;
                W(0);
            } else if (op == OP_DIV) {
                W(SX32(R[a]) / SX32(R[b]));
            } else {
                W(SX32(R[a]) % SX32(R[b]));
            }
            break;
        case OP_ADDI: W(R[a] + imm); break;
        case OP_SUBI: W(R[a] - imm); break;
        case OP_ANDI: W(R[a] & imm); break;
        case OP_ORI: W(R[a] | imm); break;
        case OP_XORI: W(R[a] ^ imm); break;
        case OP_MULI: W(SX32(R[a]) * imm); break;
        case OP_LI: W(imm); break;
        case OP_LUI: W(imm << 16); break;
        case OP_SLT: W(SX32(R[a]) < SX32(R[b])); break;
        case OP_SLTU: W(R[a] < R[b]); break;
        case OP_SEQ: W(R[a] == R[b]); break;
        case OP_SNE: W(R[a] != R[b]); break;
        case OP_SGE: W(SX32(R[a]) >= SX32(R[b])); break;
        case OP_SGT: W(SX32(R[a]) > SX32(R[b])); break;
        case OP_SLE: W(SX32(R[a]) <= SX32(R[b])); break;
        case OP_SLTI: W(SX32(R[a]) < imm); break;
        case OP_SLL: W(R[a] << (imm & 31)); break;
        case OP_SRL: W(R[a] >> (imm & 31)); break;
        case OP_SRA: W((int32_t)R[a] >> (imm & 31)); break;
        case OP_SLLV: W(R[a] << (R[b] & 31)); break;
        case OP_SRLV: W(R[a] >> (R[b] & 31)); break;
        case OP_SRAV: W((int32_t)R[a] >> (R[b] & 31)); break;

        /* -- memory: reads never allocate, writes need their page ---- */
        case OP_LW:
        case OP_LH:
        case OP_LHU:
            addr = (uint32_t)(R[a] + imm);
            if (addr & (op == OP_LW ? 3 : 1))
                STOP(FK_HANDOFF);
            page = page_of(S, (uint32_t)addr);
            u = 0;
            if (page) {
                const uint8_t *p = page + (addr & 4095);
                u = op == OP_LW
                    ? p[0] | p[1] << 8 | p[2] << 16 | (uint32_t)p[3] << 24
                    : (uint32_t)(p[0] | p[1] << 8);
            }
            W(op == OP_LH ? (uint32_t)(int32_t)(int16_t)u : u);
            loads++;
            break;
        case OP_LB:
        case OP_LBU:
            addr = (uint32_t)(R[a] + imm);
            u = read_byte(S, (uint32_t)addr);
            W(op == OP_LB ? (uint32_t)(int32_t)(int8_t)u : u);
            loads++;
            break;
        case OP_SW:
        case OP_SH:
        case OP_SB:
            addr = (uint32_t)(R[b] + imm);
            if (addr & (op == OP_SW ? 3 : op == OP_SH ? 1 : 0))
                STOP(FK_HANDOFF);
            page = page_of(S, (uint32_t)addr);
            if (!page)
                NEED_PAGE(addr);
            page += addr & 4095;
            u = R[a];
            page[0] = (uint8_t)u;
            if (op != OP_SB)
                page[1] = (uint8_t)(u >> 8);
            if (op == OP_SW) {
                page[2] = (uint8_t)(u >> 16);
                page[3] = (uint8_t)(u >> 24);
            }
            stores++;
            break;
        case OP_LWF: {
            float f;
            int k;
            addr = (uint32_t)(R[a] + imm);
            for (u = 0, k = 0; k < 4; k++)
                u |= (uint32_t)read_byte(S, (uint32_t)(addr + k)) << 8 * k;
            memcpy(&f, &u, 4);
            F[d] = f;
            loads++;
            break;
        }
        case OP_SWF: {
            double x = F[a];
            float f = (float)x;
            int k;
            if (isinf(f) && !isinf(x))
                STOP(FK_HANDOFF);     /* struct.pack's OverflowError */
            addr = (uint32_t)(R[b] + imm);
            for (k = 0; k < 4; k++)
                if (!page_of(S, (uint32_t)(addr + k)))
                    NEED_PAGE((uint32_t)(addr + k));
            memcpy(&u, &f, 4);
            for (k = 0; k < 4; k++)
                page_of(S, (uint32_t)(addr + k))[(addr + k) & 4095] =
                    (uint8_t)(u >> 8 * k);
            stores++;
            break;
        }

        /* -- conditional branches ------------------------------------ */
        case OP_BEQ: taken = R[a] == R[b]; goto branch;
        case OP_BNE: taken = R[a] != R[b]; goto branch;
        case OP_BCT: taken = C[a] != 0; goto branch;
        case OP_BCF: taken = C[a] == 0; goto branch;
        case OP_BEQZ: taken = R[a] == 0; goto branch;
        case OP_BNEZ: taken = R[a] != 0; goto branch;
        case OP_BLTZ: taken = (int32_t)R[a] < 0; goto branch;
        case OP_BGEZ: taken = (int32_t)R[a] >= 0; goto branch;
        case OP_BGTZ: taken = (int32_t)R[a] > 0; goto branch;
        case OP_BLEZ: taken = (int32_t)R[a] <= 0;
        branch:
            if (rec && record(S, c[L_SLOT], (int32_t)pc, taken) < 0)
                STOP(FK_NOMEM);
            branches++;
            if (taken) {
                ntaken++;
                next = c[L_T];
            }
            break;

        /* -- jumps --------------------------------------------------- */
        case OP_J: next = c[L_T]; jumps++; break;
        case OP_JAL: R[31] = (uint32_t)(pc + 1); next = c[L_T]; jumps++;
            break;
        case OP_JR: next = R[a]; jumps++; break;
        case OP_JALR: next = R[a]; W(pc + 1); jumps++; break;

        /* -- condition codes ------------------------------------------ */
        case OP_CMPEQ: C[d] = R[a] == R[b]; break;
        case OP_CMPNE: C[d] = R[a] != R[b]; break;
        case OP_CMPLT: C[d] = SX32(R[a]) < SX32(R[b]); break;
        case OP_CMPLE: C[d] = SX32(R[a]) <= SX32(R[b]); break;
        case OP_CMPGT: C[d] = SX32(R[a]) > SX32(R[b]); break;
        case OP_CMPGE: C[d] = SX32(R[a]) >= SX32(R[b]); break;
        case OP_CMPI: C[d] = SX32(R[a]) < imm; break;
        case OP_CAND: C[d] = C[a] && C[b]; break;
        case OP_COR: C[d] = C[a] || C[b]; break;
        case OP_CXOR: C[d] = C[a] != C[b]; break;
        case OP_CNOT: C[d] = !C[a]; break;
        case OP_CMOV: C[d] = C[a]; break;

        /* -- conditional moves ---------------------------------------- */
        case OP_CMOVT: if (C[b]) W(R[a]); break;
        case OP_CMOVF: if (!C[b]) W(R[a]); break;
        case OP_MOVZ: if (R[b] == 0) W(R[a]); break;
        case OP_MOVN: if (R[b] != 0) W(R[a]); break;

        /* -- floating point ------------------------------------------- */
        case OP_FADD: F[d] = F[a] + F[b]; break;
        case OP_FSUB: F[d] = F[a] - F[b]; break;
        case OP_FMUL: F[d] = F[a] * F[b]; break;
        case OP_FDIV:
            if (F[b] == 0.0) {
                dbz++;
                F[d] = 0.0;
            } else {
                F[d] = F[a] / F[b];
            }
            break;
        case OP_FMOV: F[d] = F[a]; break;
        case OP_FNEG: F[d] = -F[a]; break;
        case OP_FCMPEQ: C[d] = F[a] == F[b]; break;
        case OP_FCMPLT: C[d] = F[a] < F[b]; break;
        case OP_FCMPLE: C[d] = F[a] <= F[b]; break;
        case OP_CVTIF: F[d] = (double)(int32_t)R[a]; break;
        case OP_CVTFI:
            /* int() of nan / inf raises, and |x| >= 2^63 has no int64 */
            if (!(fabs(F[a]) < 9223372036854775808.0))
                STOP(FK_HANDOFF);
            W((int64_t)F[a]);
            break;

        case OP_FENCE: fences++; break;
        case OP_NOP: break;
        case OP_HALT: break;
        default:
            STOP(FK_HANDOFF);
        }
        counts[pc]++;
        if (trace) {
            S->idxs[ni++] = (int32_t)pc;
            if (taken >= 0)
                S->brs[nb++] = (int8_t)taken;
            if (addr >= 0)
                S->mems[nm++] = addr;
        }
        steps++;
        pc = next;
        if (op == OP_HALT)
            STOP(FK_HALT);
    }
out:
    STATE(SAVE)
    return rc;
}
