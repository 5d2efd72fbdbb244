package vm

import (
	"fmt"

	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// Op is a bytecode operation. The VM is a value-stack machine: operands
// named in the comments are popped from (and results pushed onto) the
// evaluation stack; A, B, C and D are immediate operands baked into the
// instruction at compile time.
//
// The enum is laid out deliberately: the hot arithmetic/control cluster —
// the plain ops the compiler emits in loop bodies plus every fused
// superinstruction — occupies the dense low range so the dispatch
// switch's jump table keeps the loop-dominant cases together; the cold
// I/O, heap-array and dynamic-lookup ops follow.
type Op uint8

const (
	OpNop Op = iota

	// --- the hot cluster: stack, slots, arithmetic, control flow
	OpConst     // push Consts[A]
	OpLoadSlot  // push slots[A]
	OpStoreSlot // slots[A] = pop
	OpIncSlot   // slots[A] = NUMBR(slots[A]) + B (B is +1 or -1); S names the loop var
	OpBinary    // y=pop, x=pop; push Binary(BinOp(A), x, y)
	OpJump      // ip = A (A is the absolute jump target, patched at compile)
	OpJumpFalse // pop; jump when not truthy
	OpJumpTrue  // pop; jump when truthy

	// --- fused superinstructions (see fuse.go). Each replaces a fixed
	// sequence the compiler emits and carries that sequence's step count
	// as its static weight, so backend.Meter accounting is identical to
	// the unfused program. B packs the BinOp in its low bits; fused jumps
	// add the fuseJumpOnTrue bit and carry their target in D.
	OpFusedConstBinary         // tos = Binary(B, tos, Consts[A]); w=2
	OpFusedSlotBinary          // tos = Binary(B, tos, slots[A]); w=2
	OpFusedSlotConstBinary     // push Binary(B, slots[A], Consts[C]); w=3
	OpFusedSlotSlotBinary      // push Binary(B, slots[A], slots[C]); w=3
	OpFusedElemSlotBinary      // i=pop; tos = Binary(B, tos, slots[A][i]); S names the array, C/D locate the binary; w=2
	OpFusedBinaryStoreSlot     // y=pop, x=pop; slots[A] = Binary(B, x, y); w=2
	OpFusedBinaryStoreSlotCast // y=pop, x=pop; slots[A] = cast(Binary(B, x, y), Kind(C)); S names the SRSLY var; w=2
	OpFusedSlotJump            // jump to D when slots[A] truthiness matches B's sense; w=2
	OpFusedSlotConstCmpJump    // jump to D when Binary(B, slots[A], Consts[C]) truthiness matches B's sense; w=4
	OpFusedSlotSlotCmpJump     // jump to D when Binary(B, slots[A], slots[C]) truthiness matches B's sense; w=4
	OpFusedIncSlotJump         // slots[A] = NUMBR(slots[A]) + B; ip = D (loop back-edge); w=2

	// Whole-statement fusions: a two-operand expression assigned straight
	// to a slot, with no value-stack traffic at all. D is the destination
	// slot; the Cast variants pack the SRSLY kind into B above the BinOp.
	OpFusedSlotConstBinaryStore     // slots[D] = Binary(B, slots[A], Consts[C]); w=4
	OpFusedSlotConstBinaryStoreCast // slots[D] = cast(Binary(B, slots[A], Consts[C])); w=4
	OpFusedSlotSlotBinaryStore      // slots[D] = Binary(B, slots[A], slots[C]); w=4
	OpFusedSlotSlotBinaryStoreCast  // slots[D] = cast(Binary(B, slots[A], slots[C])); w=4

	// --- the rest of the frame/stack ops
	OpPop           // drop the top of stack
	OpDup           // duplicate the top of stack
	OpStoreSlotCast // slots[A] = cast(pop, Kind(B)); S names the SRSLY var
	OpStoreSlotArr  // array-aware store into slots[A]: copy into an existing array
	OpLoadElemSlot  // i=pop; push slots[A][i]; S names the array
	OpStoreElemSlot // i=pop, v=pop; slots[A][i] = v; S names the array
	OpJumpFalseKeep // peek; jump when not truthy, keeping the value (short-circuit)
	OpJumpTrueKeep  // peek; jump when truthy, keeping the value (short-circuit)

	// --- symmetric heap (PGAS); B&flagRemote selects the predication target
	OpLoadHeap     // push scalar heap[A] (local get, or remote get of pred target)
	OpLoadHeapArr  // push a deep copy of array heap[A] (GetArray)
	OpStoreHeap    // put pop into heap[A] of the target PE
	OpStoreHeapArr // put array pop into heap[A] of the target PE; S names the array
	OpLoadElem     // i=pop; push heap[A][i] of the target PE
	OpStoreElem    // i=pop, v=pop; heap[A][i] of the target PE = v
	OpDeclArrSlot  // size=pop; slots[A] = new array of Kind(B); S names the array
	OpDeclArrHeap  // size=pop; allocate heap[A] symmetrically; S names the array
	OpInitHeap     // v=pop; initialize scalar heap[A]

	// --- operators
	OpUnary  // x=pop; push Unary(UnOp(A), x)
	OpCast   // x=pop; push Cast(x, Kind(A)); B (castInit/castAssign) and S give the error context
	OpTroof  // x=pop; push TROOF(x.ToTroof())
	OpEqual  // y=pop, x=pop; push TROOF(Equal(x, y))  (WTF? case dispatch)
	OpConcat // pop A values; push the YARN of their Displays (:{} interpolation)
	OpSmoosh // pop A values; push Nary(OpSmoosh, ...)

	// --- I/O
	OpVisible // pop A values; write their Displays; B flags: visNoNewline|visStderr
	OpGimmeh  // push the next stdin line as a YARN

	// --- parallel extensions (paper Table II)
	OpBarrier     // HUGZ
	OpLockAcquire // IM SRSLY MESIN WIF lock A; sets IT to WIN
	OpLockTry     // IM MESIN WIF lock A; sets IT to the outcome
	OpLockRelease // DUN MESIN WIF lock A
	OpPredPush    // pop a PE rank, validate, push onto the predication stack
	OpPredPop     // pop A entries off the predication stack

	// --- builtins
	OpMe       // push the PE id
	OpMahFrenz // push the PE count
	OpWhatevr  // push a random NUMBR
	OpWhatevar // push a random NUMBAR in [0,1)

	// --- dynamic symbol access (SRS); B is the ast.Space
	OpSrsLoad  // name=pop; resolve in the frame scope and read
	OpSrsStore // name=pop, v=pop; resolve and write

	// --- calls
	OpCall     // call Funcs[A] with B arguments popped from the stack; S names it
	OpReturn   // v=pop; unwind the frame and push v on the caller's stack
	OpReturnIT // return the frame's IT (fall-off-the-end semantics)
	OpHalt     // end of the main chunk
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpPop: "pop", OpDup: "dup",
	OpLoadSlot: "load.slot", OpStoreSlot: "store.slot",
	OpStoreSlotCast: "store.slot.cast", OpStoreSlotArr: "store.slot.arr",
	OpIncSlot:  "inc.slot",
	OpLoadHeap: "load.heap", OpLoadHeapArr: "load.heap.arr",
	OpStoreHeap: "store.heap", OpStoreHeapArr: "store.heap.arr",
	OpLoadElem: "load.elem", OpStoreElem: "store.elem",
	OpLoadElemSlot: "load.elem.slot", OpStoreElemSlot: "store.elem.slot",
	OpDeclArrSlot: "decl.arr.slot", OpDeclArrHeap: "decl.arr.heap",
	OpInitHeap: "init.heap",
	OpBinary:   "binary", OpUnary: "unary", OpCast: "cast", OpTroof: "troof",
	OpEqual: "equal", OpConcat: "concat", OpSmoosh: "smoosh",
	OpJump: "jump", OpJumpFalse: "jump.false", OpJumpTrue: "jump.true",
	OpJumpFalseKeep: "jump.false.keep", OpJumpTrueKeep: "jump.true.keep",
	OpVisible: "visible", OpGimmeh: "gimmeh",
	OpBarrier: "barrier", OpLockAcquire: "lock.acquire", OpLockTry: "lock.try",
	OpLockRelease: "lock.release", OpPredPush: "pred.push", OpPredPop: "pred.pop",
	OpMe: "me", OpMahFrenz: "mahfrenz", OpWhatevr: "whatevr", OpWhatevar: "whatevar",
	OpSrsLoad: "srs.load", OpSrsStore: "srs.store",
	OpCall: "call", OpReturn: "return", OpReturnIT: "return.it", OpHalt: "halt",

	OpFusedConstBinary:         "fuse.const.binary",
	OpFusedSlotBinary:          "fuse.slot.binary",
	OpFusedSlotConstBinary:     "fuse.slot.const.binary",
	OpFusedSlotSlotBinary:      "fuse.slot.slot.binary",
	OpFusedElemSlotBinary:      "fuse.elem.slot.binary",
	OpFusedBinaryStoreSlot:     "fuse.binary.store.slot",
	OpFusedBinaryStoreSlotCast: "fuse.binary.store.slot.cast",
	OpFusedSlotJump:            "fuse.slot.jump",
	OpFusedSlotConstCmpJump:    "fuse.slot.const.cmp.jump",
	OpFusedSlotSlotCmpJump:     "fuse.slot.slot.cmp.jump",
	OpFusedIncSlotJump:         "fuse.inc.slot.jump",

	OpFusedSlotConstBinaryStore:     "fuse.slot.const.binary.store",
	OpFusedSlotConstBinaryStoreCast: "fuse.slot.const.binary.store.cast",
	OpFusedSlotSlotBinaryStore:      "fuse.slot.slot.binary.store",
	OpFusedSlotSlotBinaryStoreCast:  "fuse.slot.slot.binary.store.cast",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// opWeights is the static step weight of every opcode: 1 for plain
// instructions, the replaced sequence's instruction count for fused
// superinstructions. The dispatch loop meters StepN(opWeights[op]) per
// instruction, so a step budget counts pre-fusion instructions exactly.
var opWeights [256]int64

func init() {
	for i := range opWeights {
		opWeights[i] = 1
	}
	opWeights[OpFusedConstBinary] = 2
	opWeights[OpFusedSlotBinary] = 2
	opWeights[OpFusedSlotConstBinary] = 3
	opWeights[OpFusedSlotSlotBinary] = 3
	opWeights[OpFusedElemSlotBinary] = 2
	opWeights[OpFusedBinaryStoreSlot] = 2
	opWeights[OpFusedBinaryStoreSlotCast] = 2
	opWeights[OpFusedSlotJump] = 2
	opWeights[OpFusedSlotConstCmpJump] = 4
	opWeights[OpFusedSlotSlotCmpJump] = 4
	opWeights[OpFusedIncSlotJump] = 2
	opWeights[OpFusedSlotConstBinaryStore] = 4
	opWeights[OpFusedSlotConstBinaryStoreCast] = 4
	opWeights[OpFusedSlotSlotBinaryStore] = 4
	opWeights[OpFusedSlotSlotBinaryStoreCast] = 4
}

// Weight is the opcode's static step weight: the number of pre-fusion
// instructions one executed instance accounts for against the step
// budget. Plain opcodes weigh 1.
func (op Op) Weight() int64 { return opWeights[op] }

// Fused reports whether the opcode is a superinstruction produced by the
// fusion pass (weight > 1).
func (op Op) Fused() bool { return opWeights[op] > 1 }

// OpVisible B flags.
const (
	visNoNewline = 1 << iota
	visStderr
)

// flagRemote in B marks a heap access as addressing the predication target
// (a UR reference) instead of the local PE.
const flagRemote = 1

// Fused instructions pack the expression's BinOp into B's low bits.
// Fused jumps add fuseJumpOnTrue to select the branch sense (set = the
// fused OpJumpTrue shape, clear = OpJumpFalse); fused store-casts pack
// the declared SRSLY kind above fuseKindShift.
const (
	fuseOpMask     = 0xff
	fuseJumpOnTrue = 1 << 8
	fuseKindShift  = 9
)

// OpCast's B operand: the statement a static variable's cast guards, so
// a failed cast reports it in the interpreter's words.
const (
	castExplicit = iota // MAEK and IS NOW A: the bare cast error
	castInit            // I HAS A x ITZ SRSLY A T AN ITZ v
	castAssign          // x R v on a SRSLY variable
)

// Instr is one decoded instruction. The VM trades the byte-packed encoding
// of a production VM for direct struct access: no operand decoding on the
// hot path, and every instruction carries its source position for errors.
// D is the jump target of fused compare-and-branch superinstructions,
// kept separate from A so slot/const operands never alias a target during
// fusion's index remapping.
type Instr struct {
	Op         Op
	A, B, C, D int
	S          string // symbol name for error messages; usually empty
	Pos        token.Pos
}

func (in Instr) String() string {
	s := fmt.Sprintf("%-16s A=%d B=%d", in.Op, in.A, in.B)
	if in.C != 0 || in.D != 0 {
		s += fmt.Sprintf(" C=%d D=%d", in.C, in.D)
	}
	if in.S != "" {
		s += " S=" + in.S
	}
	return s
}

// Chunk is one compiled frame body: the main program or one HOW IZ I
// function. NSlots is the frame size computed by sema's slot resolution;
// Scope is retained only for the dynamic name lookups SRS and :{var}
// interpolation need at runtime.
type Chunk struct {
	Name   string
	Code   []Instr
	Consts []value.Value
	NSlots int
	Params int
	Scope  *sema.Scope
}

// binFast is the unboxed arithmetic fast path shared by OpBinary and the
// fused superinstructions: one Kind check per operand, then raw
// int64/float64 dispatch through the value.Binary*/Raw* helpers so error
// semantics stay single-sourced with the generic path. Non-numeric or
// non-arithmetic operands fall back to value.Binary.
func binFast(op value.BinOp, x, y value.Value) (value.Value, error) {
	xk, yk := x.Kind(), y.Kind()
	if xk == value.Numbr && yk == value.Numbr {
		a, b := x.Numbr(), y.Numbr()
		// +, - and × dominate the kernels; evaluate them without the
		// second dispatch through BinaryNumbr's op switch.
		switch op {
		case value.OpSum:
			return value.NewNumbr(a + b), nil
		case value.OpDiff:
			return value.NewNumbr(a - b), nil
		case value.OpProdukt:
			return value.NewNumbr(a * b), nil
		}
		if op.Arith() {
			return value.BinaryNumbr(op, a, b)
		}
		return value.Binary(op, x, y)
	}
	if (xk == value.Numbr || xk == value.Numbar) && (yk == value.Numbr || yk == value.Numbar) {
		// Mixed numerics widen the NUMBR side, exactly as value.Binary does.
		a, b := x.Numbar(), y.Numbar()
		if xk == value.Numbr {
			a = float64(x.Numbr())
		}
		if yk == value.Numbr {
			b = float64(y.Numbr())
		}
		switch op {
		case value.OpSum:
			return value.NewNumbar(a + b), nil
		case value.OpDiff:
			return value.NewNumbar(a - b), nil
		case value.OpProdukt:
			return value.NewNumbar(a * b), nil
		}
		if op.Arith() {
			return value.BinaryNumbar(op, a, b)
		}
	}
	return value.Binary(op, x, y)
}

// unFast is the unboxed counterpart of binFast for the unary operators:
// the Table III math unaries on a NUMBAR operand skip value.Unary's
// operand coercion, sharing the value.Raw* bodies for error parity.
func unFast(op value.UnOp, x value.Value) (value.Value, error) {
	if x.Kind() == value.Numbar {
		f := x.Numbar()
		switch op {
		case value.OpSquar:
			return value.NewNumbar(f * f), nil
		case value.OpUnsquar:
			r, err := value.RawUnsquar(f)
			if err != nil {
				return value.NOOB, err
			}
			return value.NewNumbar(r), nil
		case value.OpFlip:
			r, err := value.RawFlip(f)
			if err != nil {
				return value.NOOB, err
			}
			return value.NewNumbar(r), nil
		}
	}
	return value.Unary(op, x)
}

// truthyBin evaluates Binary(op, x, y) for a fused compare-and-branch and
// returns the result's truthiness — for numeric comparisons without
// constructing the intermediate TROOF box at all.
func truthyBin(op value.BinOp, x, y value.Value) (bool, error) {
	switch x.Kind() {
	case value.Numbr:
		switch y.Kind() {
		case value.Numbr:
			if res, ok := value.RawCmpNumbr(op, x.Numbr(), y.Numbr()); ok {
				return res, nil
			}
		case value.Numbar:
			if res, ok := value.RawCmpNumbar(op, float64(x.Numbr()), y.Numbar()); ok {
				return res, nil
			}
		}
	case value.Numbar:
		switch y.Kind() {
		case value.Numbar:
			if res, ok := value.RawCmpNumbar(op, x.Numbar(), y.Numbar()); ok {
				return res, nil
			}
		case value.Numbr:
			if res, ok := value.RawCmpNumbar(op, x.Numbar(), float64(y.Numbr())); ok {
				return res, nil
			}
		}
	}
	v, err := binFast(op, x, y)
	if err != nil {
		return false, err
	}
	return v.ToTroof(), nil
}
