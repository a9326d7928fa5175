package machine

import (
	"sync"

	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
)

// uop is one predecoded micro-operation: an instruction with every
// pc- and encoding-dependent quantity already computed, so the execute
// loop does no sign extension, no immediate re-interpretation, and no
// branch-target arithmetic per step. The lowering is purely mechanical —
// a uop executes bit-identically to decoding and interpreting the raw
// instruction word at the same pc.
type uop struct {
	op      isa.Op
	rd      isa.Reg
	rs1     isa.Reg
	rs2     isa.Reg
	memSize uint8 // access width for loads/stores
	// xop is the threaded engine's dispatch code: uint8(op) for a plain
	// micro-op, or one of the fused-pair codes (see threaded.go) meaning
	// "execute this op and the next one under a single dispatch". The plain
	// op is always preserved alongside, and the second op's uop is left
	// untouched, so a branch that lands in the middle of a fused pair
	// executes the same instruction stream unfused, bit-identically.
	xop uint8
	// tidx is the uop index of the static control-transfer target, or -1
	// when the target leaves the text segment (the engine then defers to the
	// stepper, which reports the fault exactly as the reference does).
	tidx   int32
	imm    int64  // operand immediate, pre-extended per op semantics
	target uint64 // absolute control-transfer target (branch/jmp/jal)
}

// lowerInst turns one decoded instruction at pc into a micro-op.
func lowerInst(in isa.Inst, pc uint64) uop {
	u := uop{op: in.Op, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2}
	next := pc + uint64(isa.InstSize)
	switch in.Op {
	case isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSltiu:
		u.imm = int64(uint16(in.Imm)) // zero-extended logical immediates
	case isa.OpLui:
		u.imm = int64(uint64(uint16(in.Imm)) << 16)
	case isa.OpSlli, isa.OpSrli, isa.OpSrai:
		u.imm = int64(uint32(in.Imm) & 63) // pre-masked shift amount
	default:
		u.imm = int64(in.Imm) // sign-extended by the decoder
	}
	switch in.Op.Class() {
	case isa.ClassLoad, isa.ClassStore:
		u.memSize = uint8(in.Op.MemBytes())
	case isa.ClassBranch:
		u.target = uint64(int64(next) + int64(in.Imm)*isa.InstSize)
	}
	switch in.Op {
	case isa.OpJmp:
		u.target = uint64(int64(next) + int64(in.Imm)*isa.InstSize)
	case isa.OpJal:
		u.target = uint64(in.Imm) * isa.InstSize
	}
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu,
		isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSlli, isa.OpSrli, isa.OpSrai, isa.OpSlti, isa.OpSltiu, isa.OpLui:
		// A pure ALU op targeting the hardwired zero register retires with
		// nop semantics and nop timing (issue + fetch, no events), so lower
		// it to one. This lets the threaded engine write ALU results without
		// a per-op zero-register guard. Mul/div keep their op: they charge
		// event counters (and div can trap) even when the result is dropped.
		if in.Rd == isa.R0 {
			u = uop{op: isa.OpNop}
		}
	}
	return u
}

// predecode lowers a text segment based at textBase into micro-ops,
// reusing dst's backing array when it is large enough.
func predecode(text []byte, textBase uint64, dst []uop) []uop {
	n := len(text) / isa.InstSize
	if cap(dst) < n {
		dst = make([]uop, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		in := isa.DecodeBytes(text[i*isa.InstSize:])
		u := lowerInst(in, textBase+uint64(i*isa.InstSize))
		u.tidx = -1
		switch {
		case in.Op.Class() == isa.ClassBranch, in.Op == isa.OpJmp, in.Op == isa.OpJal:
			if toff := u.target - textBase; toff < uint64(len(text)) && u.target%uint64(isa.InstSize) == 0 {
				u.tidx = int32(toff / uint64(isa.InstSize))
			}
		}
		dst[i] = u
	}
	fusePairs(dst)
	return dst
}

// predecodeCacheCap bounds the shared predecode cache. Entries are keyed by
// executable identity; a 128-point environment sweep touches exactly one
// entry, and even a full suite × compiler-config × link-order study stays
// within a few hundred. Eviction is arbitrary — the cache is a pure
// memoization, so evicting never changes results, only costs a re-decode.
const predecodeCacheCap = 256

var (
	predecodeMu    sync.Mutex
	predecodeCache = map[*linker.Executable][]uop{}
)

// predecodedFor returns the micro-op array for img. When the image retains
// its executable, the array is memoized on the executable's identity so an
// environment sweep over one binary decodes it once, not once per run; the
// cached slice is immutable and safely shared across machines. Images
// without an executable (hand-assembled tests) decode into scratch.
func predecodedFor(img *loader.Image, scratch []uop) []uop {
	text := img.Mem[img.TextBase : img.TextBase+img.TextSize]
	if img.Exe == nil {
		return predecode(text, img.TextBase, scratch)
	}
	predecodeMu.Lock()
	if u, ok := predecodeCache[img.Exe]; ok {
		predecodeMu.Unlock()
		return u
	}
	predecodeMu.Unlock()
	// Decode outside the lock; concurrent racers produce identical arrays
	// and the last store wins.
	u := predecode(text, img.TextBase, nil)
	predecodeMu.Lock()
	if len(predecodeCache) >= predecodeCacheCap {
		//determlint:allow cache eviction choice never reaches a measurement
		for k := range predecodeCache {
			delete(predecodeCache, k)
			break
		}
	}
	predecodeCache[img.Exe] = u
	predecodeMu.Unlock()
	return u
}
