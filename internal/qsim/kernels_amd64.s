//go:build amd64 && !amd64.v3

// AVX2 run kernels: four float64 lanes of the innermost contiguous run
// of the arithmetic sweeps in qsim.go. Each lane performs exactly the
// operation sequence of the Go loop it accelerates — one VMULPD per
// product, VADDPD/VSUBPD in the source expression's left-to-right
// association, never an FMA — so the amplitudes are bit-identical to
// the scalar path (TestAVX2RunsMatchGo). See DESIGN.md "Simulator".

#include "textflag.h"

// func cpuHasAVX2() bool
//
// OSXSAVE and AVX (CPUID.1:ECX[27], [28]), the OS saving XMM and YMM
// state (XCR0[2:1] = 11b), and AVX2 (CPUID.7.0:EBX[5]).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func run1Q(re, im *float64, bit, n int, m *circuit.Mat2)
//
// Complex 2x2 on the pair streams a = (re, im)[0:n] and b = the same
// bit elements on. m is [4]complex128: m00r m00i m01r m01i m10r m10i
// m11r m11i, broadcast into Y8..Y15.
TEXT ·run1Q(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ bit+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ m+32(FP), AX
	SHLQ $3, BX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
loop1q:
	VMOVUPD (SI), Y0         // ar
	VMOVUPD (DI), Y1         // ai
	VMOVUPD (SI)(BX*1), Y2   // br
	VMOVUPD (DI)(BX*1), Y3   // bi
	// re[i] = m00r*ar - m00i*ai + m01r*br - m01i*bi
	VMULPD Y8, Y0, Y4
	VMULPD Y9, Y1, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y10, Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y11, Y3, Y5
	VSUBPD Y5, Y4, Y4
	// im[i] = m00r*ai + m00i*ar + m01r*bi + m01i*br
	VMULPD Y8, Y1, Y6
	VMULPD Y9, Y0, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y10, Y3, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y11, Y2, Y7
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (SI)
	VMOVUPD Y6, (DI)
	// re[j] = m10r*ar - m10i*ai + m11r*br - m11i*bi
	VMULPD Y12, Y0, Y4
	VMULPD Y13, Y1, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y14, Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y15, Y3, Y5
	VSUBPD Y5, Y4, Y4
	// im[j] = m10r*ai + m10i*ar + m11r*bi + m11i*br
	VMULPD Y12, Y1, Y6
	VMULPD Y13, Y0, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y14, Y3, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y15, Y2, Y7
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (SI)(BX*1)
	VMOVUPD Y6, (DI)(BX*1)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop1q
	VZEROUPPER
	RET

// func run1QReal(re, im *float64, bit, n int, m *circuit.Mat2)
//
// Real 2x2: only the real parts of m (every second float64) are read,
// into Y8..Y11; the re and im streams decouple.
TEXT ·run1QReal(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ bit+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ m+32(FP), AX
	SHLQ $3, BX
	VBROADCASTSD 0(AX), Y8   // m00
	VBROADCASTSD 16(AX), Y9  // m01
	VBROADCASTSD 32(AX), Y10 // m10
	VBROADCASTSD 48(AX), Y11 // m11
loop1qr:
	VMOVUPD (SI), Y0         // ar
	VMOVUPD (DI), Y1         // ai
	VMOVUPD (SI)(BX*1), Y2   // br
	VMOVUPD (DI)(BX*1), Y3   // bi
	// re[i] = m00*ar + m01*br
	VMULPD Y8, Y0, Y4
	VMULPD Y9, Y2, Y5
	VADDPD Y5, Y4, Y4
	// im[i] = m00*ai + m01*bi
	VMULPD Y8, Y1, Y6
	VMULPD Y9, Y3, Y7
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (SI)
	VMOVUPD Y6, (DI)
	// re[j] = m10*ar + m11*br
	VMULPD Y10, Y0, Y4
	VMULPD Y11, Y2, Y5
	VADDPD Y5, Y4, Y4
	// im[j] = m10*ai + m11*bi
	VMULPD Y10, Y1, Y6
	VMULPD Y11, Y3, Y7
	VADDPD Y7, Y6, Y6
	VMOVUPD Y4, (SI)(BX*1)
	VMOVUPD Y6, (DI)(BX*1)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop1qr
	VZEROUPPER
	RET

// The 4x4 kernel holds the quad's eight input vectors in Y0..Y7
// (a0r a0i a1r a1i a2r a2i a3r a3i); 32 matrix scalars do not fit
// beside them, so the Go side replicates each scalar into four lanes
// and the products take the table entry as a memory operand. Table
// entry k is at k*32(AX); row r of the matrix starts at r*128, and the
// imaginary parts follow the 16 real entries at +512.

// LOAD4 loads the quad streams: SI/DI walk re/im at the base index,
// R8, R9 and R10 are the byte offsets of b0, b1 and b0|b1.
#define LOAD4 \
	VMOVUPD (SI), Y0; \
	VMOVUPD (DI), Y1; \
	VMOVUPD (SI)(R8*1), Y2; \
	VMOVUPD (DI)(R8*1), Y3; \
	VMOVUPD (SI)(R9*1), Y4; \
	VMOVUPD (DI)(R9*1), Y5; \
	VMOVUPD (SI)(R10*1), Y6; \
	VMOVUPD (DI)(R10*1), Y7

// CROWRE: acc = mr0*a0r - mi0*a0i + mr1*a1r - mi1*a1i + mr2*a2r -
// mi2*a2i + mr3*a3r - mi3*a3i over row r.
#define CROWRE(r, acc, t) \
	VMULPD (r*128+0)(AX), Y0, acc; \
	VMULPD (r*128+512)(AX), Y1, t; \
	VSUBPD t, acc, acc; \
	VMULPD (r*128+32)(AX), Y2, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+544)(AX), Y3, t; \
	VSUBPD t, acc, acc; \
	VMULPD (r*128+64)(AX), Y4, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+576)(AX), Y5, t; \
	VSUBPD t, acc, acc; \
	VMULPD (r*128+96)(AX), Y6, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+608)(AX), Y7, t; \
	VSUBPD t, acc, acc

// CROWIM: acc = mr0*a0i + mi0*a0r + mr1*a1i + mi1*a1r + mr2*a2i +
// mi2*a2r + mr3*a3i + mi3*a3r over row r.
#define CROWIM(r, acc, t) \
	VMULPD (r*128+0)(AX), Y1, acc; \
	VMULPD (r*128+512)(AX), Y0, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+32)(AX), Y3, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+544)(AX), Y2, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+64)(AX), Y5, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+576)(AX), Y4, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+96)(AX), Y7, t; \
	VADDPD t, acc, acc; \
	VMULPD (r*128+608)(AX), Y6, t; \
	VADDPD t, acc, acc

// func run2Q(re, im *float64, b0, b1, n int, tab *[32][4]float64)
TEXT ·run2Q(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ tab+40(FP), AX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R9*1), R10
loop2q:
	LOAD4
	CROWRE(0, Y8, Y9)
	CROWIM(0, Y10, Y11)
	CROWRE(1, Y12, Y13)
	CROWIM(1, Y14, Y15)
	VMOVUPD Y8, (SI)
	VMOVUPD Y10, (DI)
	VMOVUPD Y12, (SI)(R8*1)
	VMOVUPD Y14, (DI)(R8*1)
	CROWRE(2, Y8, Y9)
	CROWIM(2, Y10, Y11)
	CROWRE(3, Y12, Y13)
	CROWIM(3, Y14, Y15)
	VMOVUPD Y8, (SI)(R9*1)
	VMOVUPD Y10, (DI)(R9*1)
	VMOVUPD Y12, (SI)(R10*1)
	VMOVUPD Y14, (DI)(R10*1)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop2q
	VZEROUPPER
	RET

// func runSwap(re, im *float64, p, q, n int)
//
// The exchange of exchangeQuadsRange: re[i+p] <-> re[i+q] and the same
// on im, four positions a step. No arithmetic, so nothing to round.
TEXT ·runSwap(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), R8
	MOVQ q+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
loopswap:
	VMOVUPD (SI)(R8*1), Y0
	VMOVUPD (SI)(R9*1), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD (DI)(R9*1), Y3
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y0, (SI)(R9*1)
	VMOVUPD Y3, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R9*1)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loopswap
	VZEROUPPER
	RET

// The in-register 2x2 kernels serve qubits 0 and 1, whose pairs lie
// inside one group of four lanes. Each step loads one group per stream
// and spreads it into a = the low element of each lane's pair and b =
// the high one: for bit 1 (lane pairs 0-1, 2-3) VMOVDDUP gives
// [x0 x0 x2 x2] and VPERMILPD $0xF [x1 x1 x3 x3]; for bit 2 (lane pairs
// 0-2, 1-3) VPERM2F128 $0x00 gives [x0 x1 x0 x1] and $0x11
// [x2 x3 x2 x3]. The table (lowLanes) holds per-lane coefficients: a
// lane that is its pair's low element takes m's first row, the high
// element the second, so one expression computes both halves of the
// pair — the Go loop's re[i] and re[j] lines, lane by lane.
// Y8..Y11 = table rows c0..c3; ar ai br bi arrive in Y2 Y4 Y3 Y5.

// LOWCPLX: Y6 = c0*ar - c1*ai + c2*br - c3*bi (the Go loop's re line),
// Y7 = c0*ai + c1*ar + c2*bi + c3*br (its im line).
#define LOWCPLX \
	VMULPD Y8, Y2, Y6; \
	VMULPD Y9, Y4, Y12; \
	VSUBPD Y12, Y6, Y6; \
	VMULPD Y10, Y3, Y12; \
	VADDPD Y12, Y6, Y6; \
	VMULPD Y11, Y5, Y12; \
	VSUBPD Y12, Y6, Y6; \
	VMULPD Y8, Y4, Y7; \
	VMULPD Y9, Y2, Y12; \
	VADDPD Y12, Y7, Y7; \
	VMULPD Y10, Y5, Y12; \
	VADDPD Y12, Y7, Y7; \
	VMULPD Y11, Y3, Y12; \
	VADDPD Y12, Y7, Y7

// LOWREAL: Y6 = c0*ar + c2*br, Y7 = c0*ai + c2*bi (the real loop's
// lines; c1 and c3 are unused).
#define LOWREAL \
	VMULPD Y8, Y2, Y6; \
	VMULPD Y10, Y3, Y12; \
	VADDPD Y12, Y6, Y6; \
	VMULPD Y8, Y4, Y7; \
	VMULPD Y10, Y5, Y12; \
	VADDPD Y12, Y7, Y7

// SPREAD1 / SPREAD2 split the loaded groups Y0 (re) and Y1 (im) into
// ar br ai bi for bit 1 and bit 2.
#define SPREAD1 \
	VMOVDDUP Y0, Y2; \
	VPERMILPD $0xF, Y0, Y3; \
	VMOVDDUP Y1, Y4; \
	VPERMILPD $0xF, Y1, Y5

#define SPREAD2 \
	VPERM2F128 $0x00, Y0, Y0, Y2; \
	VPERM2F128 $0x11, Y0, Y0, Y3; \
	VPERM2F128 $0x00, Y1, Y1, Y4; \
	VPERM2F128 $0x11, Y1, Y1, Y5

// LOWLOOP is one kernel loop: label, spread, arithmetic.
#define LOWLOOP(label, spread, arith) \
label: \
	VMOVUPD (SI), Y0; \
	VMOVUPD (DI), Y1; \
	spread; \
	arith; \
	VMOVUPD Y6, (SI); \
	VMOVUPD Y7, (DI); \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	SUBQ $4, CX; \
	JNZ  label

// LOWTAB loads the table rows from AX. (The argument loads stay in each
// TEXT body, where vet's asmdecl can check them.)
#define LOWTAB \
	VMOVUPD 0(AX), Y8; \
	VMOVUPD 32(AX), Y9; \
	VMOVUPD 64(AX), Y10; \
	VMOVUPD 96(AX), Y11

// func run1QLow(re, im *float64, bit, n int, tab *[4][4]float64)
TEXT ·run1QLow(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ bit+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ tab+32(FP), AX
	LOWTAB
	CMPQ BX, $1
	JNE  lowc2
	LOWLOOP(lowc1loop, SPREAD1, LOWCPLX)
	VZEROUPPER
	RET
lowc2:
	LOWLOOP(lowc2loop, SPREAD2, LOWCPLX)
	VZEROUPPER
	RET

// func run1QLowReal(re, im *float64, bit, n int, tab *[4][4]float64)
TEXT ·run1QLowReal(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ bit+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ tab+32(FP), AX
	LOWTAB
	CMPQ BX, $1
	JNE  lowr2
	LOWLOOP(lowr1loop, SPREAD1, LOWREAL)
	VZEROUPPER
	RET
lowr2:
	LOWLOOP(lowr2loop, SPREAD2, LOWREAL)
	VZEROUPPER
	RET
