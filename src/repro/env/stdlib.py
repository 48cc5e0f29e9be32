"""The standard macro library, written in AQL itself.

Section 3: "We henceforth assume the following frequently used operators
are available as macros: and, or, not, forall_in, exists_in, dom, rng,
dim_{i,k}, subseq, zip, etc."  (``and``/``or``/``not`` are surface
syntax; the rest are genuine macros, registered below by parsing AQL
source — the same mechanism user macros use.)

Every macro here is definable from the minimal construct set, which is
the paper's Section 2/3 argument made executable.
"""

STDLIB_SOURCE = r"""
(* ---- small numeric helpers ---- *)
macro \min2 = fn (\a, \b) => if a <= b then a else b;
macro \max2 = fn (\a, \b) => if a >= b then a else b;

(* ---- aggregates via the summation construct (Section 2) ---- *)
macro \count = fn \S => summap(fn \x => 1)!(S);
macro \total = fn \S => summap(fn \x => x)!(S);
macro \forall_in = fn (\P, \S) =>
    summap(fn \x => if P!x then 0 else 1)!(S) = 0;
macro \exists_in = fn (\P, \S) =>
    summap(fn \x => if P!x then 1 else 0)!(S) > 0;
macro \filterset = fn (\P, \S) => {x | \x <- S, P!x};

(* ---- domains, ranges, graphs of arrays (Section 2) ---- *)
macro \dom = fn \A => gen!(len!A);
macro \rng = fn \A => {x | [_ : \x] <- A};
macro \graph = fn \A => {(i, x) | [\i : \x] <- A};
macro \rng_2 = fn \M => {x | [(_,_) : \x] <- M};
macro \graph_2 = fn \M => {((i,j), x) | [(\i,\j) : \x] <- M};

(* ---- the 1-d array operators of Sections 1-3 ---- *)
macro \maparr = fn (\F, \A) => [[ F!(A[i]) | \i < len!A ]];
macro \zip = fn (\A, \B) =>
    [[ (A[i], B[i]) | \i < min2!(len!A, len!B) ]];
macro \zip_3 = fn (\A, \B, \C) =>
    [[ (A[i], B[i], C[i]) | \i < min2!(len!A, min2!(len!B, len!C)) ]];
macro \subseq = fn (\A, \i, \j) => [[ A[i+k] | \k < (j+1)-i ]];
macro \reverse = fn \A => [[ A[len!A - i - 1] | \i < len!A ]];
macro \evenpos = fn \A => [[ A[i*2] | \i < len!A / 2 ]];
macro \oddpos = fn \A => [[ A[i*2+1] | \i < len!A / 2 ]];
macro \append = fn (\A, \B) =>
    [[ if i < len!A then A[i] else B[i - len!A] | \i < len!A + len!B ]];
macro \enumerate = fn \A => [[ (i, A[i]) | \i < len!A ]];

(* ---- the ODMG-93 array primitives, functionally (Section 7): create
   is the array literal, subscript is A[i] and concatenation append;
   an extending resize leaves bottom in the new slots ---- *)
macro \update = fn (\A, \p, \v) =>
    [[ if j = p then v else A[j] | \j < len!A ]];
macro \insert = fn (\A, \p, \v) =>
    [[ if j < p then A[j] else if j = p then v else A[j - 1]
     | \j < len!A + 1 ]];
macro \remove = fn (\A, \p) =>
    [[ if j < p then A[j] else A[j + 1] | \j < len!A - 1 ]];
macro \resize = fn (\A, \n) =>
    [[ if j < len!A then A[j] else bottom | \j < n ]];

(* ---- matrix operators (Section 2) ---- *)
macro \transpose = fn \M =>
    let val (\m, \n) = dim_2!M in [[ M[i, j] | \j < n, \i < m ]] end;
macro \proj_col = fn (\M, \j) =>
    let val (\m, \n) = dim_2!M in [[ M[i, j] | \i < m ]] end;
macro \proj_row = fn (\M, \i) =>
    let val (\m, \n) = dim_2!M in [[ M[i, j] | \j < n ]] end;
macro \matmul = fn (\M, \N) =>
    let val (\m, \p) = dim_2!M
        val (\p2, \n) = dim_2!N
    in if p <> p2 then bottom
       else [[ summap(fn \k => M[i,k] * N[k,j])!(gen!p) | \i < m, \j < n ]]
    end;
macro \row_major = fn \M =>
    let val (\m, \n) = dim_2!M in [[ M[i/n, i%n] | \i < m*n ]] end;
macro \reshape_2 = fn (\A, \m, \n) =>
    if m*n <> len!A then bottom else [[ A[i*n + j] | \i < m, \j < n ]];

(* ---- the histogram pair of Section 2 ---- *)
macro \hist = fn \A =>
    [[ summap(fn \j => if A[j] = i then 1 else 0)!(dom!A)
     | \i < max!(rng!A) + 1 ]];
macro \hist2 = fn \A =>
    maparr!(count, index!({(A[j], j) | \j <- dom!A}));

(* ---- relational helpers (Section 2 examples) ---- *)
macro \nest = fn \X => {(x, {y | (x, \y) <- X}) | (\x, _) <- X};
macro \cross = fn (\X, \Y) => {(x, y) | \x <- X, \y <- Y};
macro \pi1set = fn \X => {x | (\x, _) <- X};
macro \pi2set = fn \X => {y | (_, \y) <- X};

(* ---- sequence toolkit (derived, Section 2 style) ---- *)
macro \take = fn (\A, \n) => [[ A[i] | \i < min2!(n, len!A) ]];
macro \drop = fn (\A, \n) => [[ A[n + i] | \i < len!A - n ]];
macro \contains = fn (\A, \v) => exists_in!(fn \x => x = v, rng!A);
macro \positions = fn (\A, \v) => {i | [\i : \x] <- A, x = v};
macro \argmin = fn \A => min!(positions!(A, min!(rng!A)));
macro \argmax = fn \A => min!(positions!(A, max!(rng!A)));
macro \prefix_sums = fn \A =>
    [[ summap(fn \j => A[j])!(gen!(i + 1)) | \i < len!A ]];
macro \windows = fn (\A, \w) =>
    [[ subseq!(A, i, i + w - 1) | \i < (len!A + 1) - w ]];
macro \sorted_rng = fn \A => sort!(rng!A);
macro \flatten_rect = fn \AA =>
    let val \m = len!AA
        val \n = if m = 0 then 0 else len!(AA[0])
    in [[ AA[i / n][i % n] | \i < m * n ]] end;

(* ---- linear algebra on top of the three array constructs ---- *)
macro \dot = fn (\u, \v) =>
    if len!u <> len!v then bottom
    else summap(fn \i => u[i] * v[i])!(dom!u);
macro \outer = fn (\u, \v) =>
    [[ u[i] * v[j] | \i < len!u, \j < len!v ]];
macro \diag = fn \M =>
    let val (\m, \n) = dim_2!M in [[ M[i, i] | \i < min2!(m, n) ]] end;
macro \trace = fn \M =>
    let val (\m, \n) = dim_2!M
    in summap(fn \i => M[i, i])!(gen!(min2!(m, n))) end;
macro \identity_mat = fn \n =>
    [[ if i = j then 1 else 0 | \i < n, \j < n ]];
macro \matvec = fn (\M, \v) =>
    let val (\m, \n) = dim_2!M
    in if n <> len!v then bottom
       else [[ summap(fn \j => M[i, j] * v[j])!(gen!n) | \i < m ]]
    end;
macro \matadd = fn (\M, \N) =>
    let val (\m, \n) = dim_2!M
        val (\m2, \n2) = dim_2!N
    in if m <> m2 or n <> n2 then bottom
       else [[ M[i, j] + N[i, j] | \i < m, \j < n ]]
    end;
macro \scale = fn (\c, \M) =>
    let val (\m, \n) = dim_2!M in [[ c * M[i, j] | \i < m, \j < n ]] end;
macro \is_symmetric = fn \M =>
    let val (\m, \n) = dim_2!M
    in m = n and
       forall_in!(fn \i =>
           forall_in!(fn \j => M[i, j] = M[j, i], gen!n), gen!m)
    end;
"""


__all__ = ["STDLIB_SOURCE"]
