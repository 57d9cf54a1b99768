// Package spec provides the SPEC CPU2017 rate-suite stand-in used to
// regenerate Table 2 (polling-countermeasure overhead).
//
// Real SPEC2017 is proprietary, so each of the 23 benchmarks in the paper's
// table is represented by (a) a deterministic Go compute kernel in the
// spirit of the original workload — used by `go test -bench` for native
// measurements — and (b) an instruction-mix profile consumed by the
// virtual-time rate harness, which measures how much throughput the polling
// kthread steals.
//
// Reference rates are normalized to the paper's published "without polling"
// columns so regenerated rows are directly comparable to Table 2; only the
// *slowdown* columns are measured quantities here.
package spec

import (
	"math"
	"sort"

	"plugvolt/internal/cpu"
)

// Suite distinguishes SPECrate2017 Floating Point from Integer.
type Suite string

// Suite values.
const (
	FPRate  Suite = "fprate"
	IntRate Suite = "intrate"
)

// Benchmark is one SPEC2017-rate workload stand-in.
type Benchmark struct {
	// Name is the SPEC identifier, e.g. "503.bwaves_r".
	Name  string
	Suite Suite
	// Mix is the instruction-class mix of the hot loops (fractions sum
	// to 1); feeds the virtual-time execution model.
	Mix map[cpu.Class]float64
	// InstrPerUnit is the instruction count of one work unit.
	InstrPerUnit int
	// RefBaseRate / RefPeakRate are the paper's measured "without polling"
	// rates, used as normalization so regenerated rows are recognizable.
	RefBaseRate, RefPeakRate float64
	// Kernel is the native Go compute kernel: it performs `n` work units
	// and returns a checksum (consumed so the compiler cannot elide it).
	Kernel func(n int) uint64
}

// WeightedCPI returns the mix-weighted throughput CPI of the benchmark on
// the simulated core model. It sums in mixClasses order: ranging over the
// map would add the terms in Go's random order, and the sum's last bits,
// and with them Table 2's virtual clock, would vary from run to run.
func (b *Benchmark) WeightedCPI() float64 {
	cpi := 0.0
	for _, class := range mixClasses {
		cpi += b.Mix[class] * throughputCPI(class)
	}
	return cpi
}

// throughputCPI mirrors the cpu package's class throughputs for the
// analytic model (kept here to avoid exporting cpu internals).
func throughputCPI(c cpu.Class) float64 {
	switch c {
	case cpu.ClassIMul, cpu.ClassAES:
		return 1.0
	case cpu.ClassFMA, cpu.ClassLoad:
		return 0.5
	default:
		return 0.25
	}
}

// mixClasses lists the classes of a mix in mix's argument order.
var mixClasses = [...]cpu.Class{cpu.ClassFMA, cpu.ClassLoad, cpu.ClassALU, cpu.ClassIMul}

// mix builds an instruction mix; the four weights are FMA, load, ALU, imul.
func mix(fma, load, alu, imul float64) map[cpu.Class]float64 {
	return map[cpu.Class]float64{
		cpu.ClassFMA:  fma,
		cpu.ClassLoad: load,
		cpu.ClassALU:  alu,
		cpu.ClassIMul: imul,
	}
}

// All returns the 23 Table-2 benchmarks in paper order.
func All() []*Benchmark {
	return []*Benchmark{
		// ---- SPECrate2017 Floating Point ----
		{Name: "503.bwaves_r", Suite: FPRate, Mix: mix(0.55, 0.30, 0.13, 0.02), InstrPerUnit: 4000, RefBaseRate: 628.59, RefPeakRate: 604.21, Kernel: kBwaves},
		{Name: "507.cactuBSSN_r", Suite: FPRate, Mix: mix(0.50, 0.32, 0.15, 0.03), InstrPerUnit: 5200, RefBaseRate: 222.95, RefPeakRate: 202.87, Kernel: kCactu},
		{Name: "508.namd_r", Suite: FPRate, Mix: mix(0.60, 0.25, 0.13, 0.02), InstrPerUnit: 3600, RefBaseRate: 175.96, RefPeakRate: 179.55, Kernel: kNamd},
		{Name: "510.parest_r", Suite: FPRate, Mix: mix(0.45, 0.38, 0.15, 0.02), InstrPerUnit: 4400, RefBaseRate: 387.96, RefPeakRate: 324.46, Kernel: kParest},
		{Name: "511.povray_r", Suite: FPRate, Mix: mix(0.48, 0.27, 0.22, 0.03), InstrPerUnit: 3000, RefBaseRate: 328.67, RefPeakRate: 267.29, Kernel: kPovray},
		{Name: "519.lbm_r", Suite: FPRate, Mix: mix(0.58, 0.32, 0.09, 0.01), InstrPerUnit: 5000, RefBaseRate: 224.08, RefPeakRate: 176.56, Kernel: kLbm},
		{Name: "521.wrf_r", Suite: FPRate, Mix: mix(0.52, 0.30, 0.16, 0.02), InstrPerUnit: 4800, RefBaseRate: 404.21, RefPeakRate: 428.21, Kernel: kWrf},
		{Name: "526.blender_r", Suite: FPRate, Mix: mix(0.44, 0.28, 0.25, 0.03), InstrPerUnit: 3400, RefBaseRate: 256.54, RefPeakRate: 239.52, Kernel: kBlender},
		{Name: "527.cam4_r", Suite: FPRate, Mix: mix(0.47, 0.31, 0.20, 0.02), InstrPerUnit: 4600, RefBaseRate: 315.77, RefPeakRate: 324.12, Kernel: kCam4},
		{Name: "538.imagick_r", Suite: FPRate, Mix: mix(0.50, 0.33, 0.15, 0.02), InstrPerUnit: 3800, RefBaseRate: 401.88, RefPeakRate: 318.06, Kernel: kImagick},
		{Name: "544.nab_r", Suite: FPRate, Mix: mix(0.56, 0.27, 0.15, 0.02), InstrPerUnit: 3500, RefBaseRate: 315.25, RefPeakRate: 282.02, Kernel: kNab},
		{Name: "549.fotonik3d_r", Suite: FPRate, Mix: mix(0.57, 0.33, 0.09, 0.01), InstrPerUnit: 5400, RefBaseRate: 418.76, RefPeakRate: 415.46, Kernel: kFotonik},
		{Name: "554.roms_r", Suite: FPRate, Mix: mix(0.54, 0.31, 0.13, 0.02), InstrPerUnit: 5000, RefBaseRate: 322.51, RefPeakRate: 279.39, Kernel: kRoms},
		// ---- SPECrate2017 Integer ----
		{Name: "500.perlbench_r", Suite: IntRate, Mix: mix(0.02, 0.40, 0.52, 0.06), InstrPerUnit: 2600, RefBaseRate: 295.87511, RefPeakRate: 253.71, Kernel: kPerlbench},
		{Name: "502.gcc_r", Suite: IntRate, Mix: mix(0.01, 0.43, 0.52, 0.04), InstrPerUnit: 3100, RefBaseRate: 221.4159, RefPeakRate: 218.91, Kernel: kGcc},
		{Name: "505.mcf_r", Suite: IntRate, Mix: mix(0.01, 0.52, 0.44, 0.03), InstrPerUnit: 3300, RefBaseRate: 339.97, RefPeakRate: 297.68, Kernel: kMcf},
		{Name: "520.omnetpp_r", Suite: IntRate, Mix: mix(0.02, 0.46, 0.48, 0.04), InstrPerUnit: 2900, RefBaseRate: 509.805, RefPeakRate: 479.08, Kernel: kOmnetpp},
		{Name: "523.xalancbmk_r", Suite: IntRate, Mix: mix(0.01, 0.45, 0.50, 0.04), InstrPerUnit: 2700, RefBaseRate: 287.7046, RefPeakRate: 283.57, Kernel: kXalanc},
		{Name: "525.x264_r", Suite: IntRate, Mix: mix(0.06, 0.40, 0.46, 0.08), InstrPerUnit: 2400, RefBaseRate: 318.11903, RefPeakRate: 290.76, Kernel: kX264},
		{Name: "531.deepsjeng_r", Suite: IntRate, Mix: mix(0.01, 0.37, 0.55, 0.07), InstrPerUnit: 2200, RefBaseRate: 306.148284, RefPeakRate: 284.09, Kernel: kDeepsjeng},
		{Name: "541.leela_r", Suite: IntRate, Mix: mix(0.02, 0.39, 0.53, 0.06), InstrPerUnit: 2500, RefBaseRate: 417.2528, RefPeakRate: 383.03, Kernel: kLeela},
		{Name: "548.exchange2_r", Suite: IntRate, Mix: mix(0.00, 0.34, 0.61, 0.05), InstrPerUnit: 2000, RefBaseRate: 345.38, RefPeakRate: 248.6, Kernel: kExchange2},
		{Name: "557.xz_r", Suite: IntRate, Mix: mix(0.01, 0.44, 0.49, 0.06), InstrPerUnit: 2800, RefBaseRate: 387.71, RefPeakRate: 373.41, Kernel: kXz},
	}
}

// ByName finds a benchmark.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// Names lists all benchmark names in paper order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}

// ---------------------------------------------------------------------------
// Native Go kernels. Each does real, distinct computation in the flavor of
// its SPEC namesake and returns a checksum.
// ---------------------------------------------------------------------------

// kBwaves: blast-wave stencil — 3D 7-point Laplacian relaxation.
func kBwaves(n int) uint64 {
	const d = 12
	var g [d][d][d]float64
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				g[i][j][k] = float64(i*j + k + 1)
			}
		}
	}
	for it := 0; it < n; it++ {
		g[1][1][1] += 0.5 * float64(it+1) // moving blast source
		for i := 1; i < d-1; i++ {
			for j := 1; j < d-1; j++ {
				for k := 1; k < d-1; k++ {
					g[i][j][k] = 0.125*(g[i-1][j][k]+g[i+1][j][k]+g[i][j-1][k]+
						g[i][j+1][k]+g[i][j][k-1]+g[i][j][k+1]) + 0.25*g[i][j][k]
				}
			}
		}
	}
	acc := 0.0
	for i := 0; i < d; i++ {
		acc += g[i][i][i]
	}
	return math.Float64bits(acc)
}

// kCactu: BSSN-like finite differencing with mixed derivatives.
func kCactu(n int) uint64 {
	const d = 24
	var u, v [d][d]float64
	for i := range u {
		for j := range u[i] {
			u[i][j] = math.Sin(float64(i)) * math.Cos(float64(j))
		}
	}
	for it := 0; it < n; it++ {
		for i := 2; i < d-2; i++ {
			for j := 2; j < d-2; j++ {
				dxx := u[i-2][j] - 2*u[i][j] + u[i+2][j]
				dyy := u[i][j-2] - 2*u[i][j] + u[i][j+2]
				dxy := u[i+1][j+1] - u[i+1][j-1] - u[i-1][j+1] + u[i-1][j-1]
				v[i][j] = u[i][j] + 0.01*(dxx+dyy) + 0.0025*dxy
			}
		}
		u, v = v, u
	}
	return math.Float64bits(u[d/2][d/2])
}

// kNamd: n-body Lennard-Jones force accumulation.
func kNamd(n int) uint64 {
	const bodies = 24
	var px, py, pz, fx [bodies]float64
	for i := range px {
		px[i], py[i], pz[i] = float64(i), float64(i*i%7), float64(i%5)
	}
	for it := 0; it < n; it++ {
		for i := 0; i < bodies; i++ {
			for j := i + 1; j < bodies; j++ {
				dx, dy, dz := px[i]-px[j], py[i]-py[j], pz[i]-pz[j]
				r2 := dx*dx + dy*dy + dz*dz + 1.0
				inv := 1.0 / r2
				inv3 := inv * inv * inv
				f := inv3 * (inv3 - 0.5)
				fx[i] += f * dx
				fx[j] -= f * dx
			}
		}
	}
	return math.Float64bits(fx[0] + fx[bodies-1])
}

// kParest: Jacobi sweep on a sparse 5-point system (PDE parameter fit).
func kParest(n int) uint64 {
	const d = 32
	var x, b [d * d]float64
	for i := range b {
		b[i] = float64(i%13) * 0.1
	}
	for it := 0; it < n; it++ {
		b[(it*29)%len(b)] += 0.05 // observation update between sweeps
		for i := 1; i < d-1; i++ {
			for j := 1; j < d-1; j++ {
				k := i*d + j
				x[k] = 0.25 * (b[k] + x[k-1] + x[k+1] + x[k-d] + x[k+d])
			}
		}
	}
	acc := 0.0
	for _, v := range x {
		acc += v
	}
	return math.Float64bits(acc)
}

// kPovray: ray-sphere intersection batches.
func kPovray(n int) uint64 {
	hits := uint64(0)
	for it := 0; it < n; it++ {
		for s := 0; s < 32; s++ {
			ox, oy, oz := float64(it%17)*0.1, float64(s)*0.2, -5.0
			dx, dy, dz := 0.01*float64(s), 0.02, 1.0
			cx, cy, cz, r := 0.5, 0.5, 0.0, 1.5
			lx, ly, lz := cx-ox, cy-oy, cz-oz
			tca := lx*dx + ly*dy + lz*dz
			d2 := lx*lx + ly*ly + lz*lz - tca*tca
			if d2 < r*r {
				thc := math.Sqrt(r*r - d2)
				t0 := tca - thc
				hits += uint64(math.Float64bits(t0) & 0xFF)
			}
		}
	}
	return hits
}

// kLbm: D2Q9 lattice-Boltzmann collide step.
func kLbm(n int) uint64 {
	const cells = 64
	var f [9][cells]float64
	for q := range f {
		for c := range f[q] {
			f[q][c] = 1.0 / 9.0 * float64(q+c%3+1)
		}
	}
	w := [9]float64{4. / 9, 1. / 9, 1. / 9, 1. / 9, 1. / 9, 1. / 36, 1. / 36, 1. / 36, 1. / 36}
	for it := 0; it < n; it++ {
		f[1][it%cells] += 0.01 // inflow perturbation
		for c := 0; c < cells; c++ {
			rho := 0.0
			for q := 0; q < 9; q++ {
				rho += f[q][c]
			}
			for q := 0; q < 9; q++ {
				eq := w[q] * rho
				f[q][c] += 0.6 * (eq - f[q][c])
			}
		}
	}
	acc := 0.0
	for c := 0; c < cells; c++ {
		acc += f[4][c] - f[0][c]
	}
	return math.Float64bits(acc)
}

// kWrf: layered atmosphere advection-diffusion column update.
func kWrf(n int) uint64 {
	const levels = 48
	var t, q [levels]float64
	for i := range t {
		t[i] = 288 - 6.5*float64(i)*0.5
		q[i] = 0.01 * math.Exp(-float64(i)/8)
	}
	for it := 0; it < n; it++ {
		for i := 1; i < levels-1; i++ {
			adv := -0.3 * (t[i] - t[i-1])
			diff := 0.05 * (t[i-1] - 2*t[i] + t[i+1])
			lat := 2.5e3 * q[i] * 0.001
			t[i] += adv + diff + lat
			q[i] *= 0.9995
		}
	}
	return math.Float64bits(t[levels/2] + q[10])
}

// kBlender: mesh vertex transform + normal renormalization.
func kBlender(n int) uint64 {
	const verts = 48
	var vx, vy, vz [verts]float64
	for i := range vx {
		vx[i], vy[i], vz[i] = float64(i)*0.3, float64(i)*0.7, float64(i)*0.1
	}
	s, c := math.Sin(0.03), math.Cos(0.03)
	for it := 0; it < n; it++ {
		for i := 0; i < verts; i++ {
			x := c*vx[i] - s*vy[i]
			y := s*vx[i] + c*vy[i]
			z := vz[i] + 0.001*x
			inv := 1.0 / math.Sqrt(x*x+y*y+z*z+1e-9)
			vx[i], vy[i], vz[i] = x*inv, y*inv, z*inv
		}
	}
	return math.Float64bits(vx[7] + vy[13] + vz[21])
}

// kCam4: column physics with saturation vapor pressure (exp-heavy).
func kCam4(n int) uint64 {
	const cols = 32
	var temp [cols]float64
	for i := range temp {
		temp[i] = 250 + float64(i)
	}
	acc := 0.0
	for it := 0; it < n; it++ {
		for i := 0; i < cols; i++ {
			es := 610.78 * math.Exp(17.27*(temp[i]-273.15)/(temp[i]-35.85))
			qs := 0.622 * es / (101325 - es)
			temp[i] += 0.001 * (qs - 0.005)
			acc += qs
		}
	}
	return math.Float64bits(acc)
}

// kImagick: 3x3 convolution over a grayscale tile.
func kImagick(n int) uint64 {
	const d = 24
	var img, out [d][d]float64
	for i := range img {
		for j := range img[i] {
			img[i][j] = float64((i*31 + j*17) % 255)
		}
	}
	kern := [3][3]float64{{0.0625, 0.125, 0.0625}, {0.125, 0.25, 0.125}, {0.0625, 0.125, 0.0625}}
	for it := 0; it < n; it++ {
		for i := 1; i < d-1; i++ {
			for j := 1; j < d-1; j++ {
				s := 0.0
				for a := -1; a <= 1; a++ {
					for b := -1; b <= 1; b++ {
						s += kern[a+1][b+1] * img[i+a][j+b]
					}
				}
				out[i][j] = s
			}
		}
		img, out = out, img
	}
	return math.Float64bits(img[d/2][d/2])
}

// kNab: nucleic-acid distance matrix + energy sum.
func kNab(n int) uint64 {
	const atoms = 28
	var x [atoms]float64
	for i := range x {
		x[i] = float64(i) * 1.5
	}
	e := 0.0
	for it := 0; it < n; it++ {
		for i := 0; i < atoms; i++ {
			for j := i + 1; j < atoms; j++ {
				d := x[i] - x[j]
				r := math.Abs(d) + 0.1
				e += 1.0/math.Pow(r, 12) - 1.0/math.Pow(r, 6)
			}
		}
		x[it%atoms] += 0.001
	}
	return math.Float64bits(e)
}

// kFotonik: 1D FDTD E/H leapfrog updates.
func kFotonik(n int) uint64 {
	const d = 96
	var e, h [d]float64
	for it := 0; it < n; it++ {
		e[d/2] += math.Sin(0.1*float64(it)) + 0.3 // source fires before the sweep
		for i := 1; i < d; i++ {
			h[i] += 0.5 * (e[i] - e[i-1])
		}
		for i := 0; i < d-1; i++ {
			e[i] += 0.5 * (h[i+1] - h[i])
		}
	}
	acc := 0.0
	for i := 0; i < d; i++ {
		acc += e[i]*float64(i+1) + h[i]
	}
	return math.Float64bits(acc)
}

// kRoms: ocean free-surface stencil with Coriolis term.
func kRoms(n int) uint64 {
	const d = 20
	var eta, u, v [d][d]float64
	for i := range eta {
		for j := range eta[i] {
			eta[i][j] = 0.1 * math.Sin(float64(i+j))
		}
	}
	for it := 0; it < n; it++ {
		for i := 1; i < d-1; i++ {
			for j := 1; j < d-1; j++ {
				u[i][j] += -9.81*0.01*(eta[i+1][j]-eta[i-1][j]) + 1e-4*v[i][j]
				v[i][j] += -9.81*0.01*(eta[i][j+1]-eta[i][j-1]) - 1e-4*u[i][j]
				eta[i][j] -= 0.01 * (u[i+1][j] - u[i-1][j] + v[i][j+1] - v[i][j-1])
			}
		}
	}
	return math.Float64bits(eta[d/2][d/2])
}

// kPerlbench: string hashing and pattern scanning.
func kPerlbench(n int) uint64 {
	text := []byte("the quick brown fox jumps over the lazy dog 0123456789 plundervolt voltjockey v0ltpwn")
	var acc uint64
	for it := 0; it < n; it++ {
		h := uint64(5381)
		for _, c := range text {
			h = h*33 ^ uint64(c)
		}
		// naive substring scan
		pat := []byte{text[it%len(text)], text[(it+3)%len(text)]}
		for i := 0; i+1 < len(text); i++ {
			if text[i] == pat[0] && text[i+1] == pat[1] {
				acc++
			}
		}
		acc ^= h
	}
	return acc
}

// kGcc: dominator-ish bitset dataflow over a small CFG.
func kGcc(n int) uint64 {
	const nodes = 48
	var succ [nodes][2]int
	for i := 0; i < nodes; i++ {
		succ[i][0] = (i*7 + 1) % nodes
		succ[i][1] = (i*13 + 5) % nodes
	}
	var in, out [nodes]uint64
	acc := uint64(0)
	for it := 0; it < n; it++ {
		for i := 0; i < nodes; i++ {
			in[i] = out[succ[i][0]] & out[succ[i][1]]
			out[i] = in[i] | 1<<uint((i+it)%64) // gen set shifts per pass
		}
		for _, v := range out {
			acc = acc*1099511628211 ^ v
		}
	}
	return acc
}

// kMcf: Bellman-Ford relaxation on a small network.
func kMcf(n int) uint64 {
	const nodes = 40
	var dist [nodes]int64
	for i := range dist {
		dist[i] = 1 << 30
	}
	dist[0] = 0
	for it := 0; it < n; it++ {
		for u := 0; u < nodes; u++ {
			for _, e := range [3]int{1, 7, 11} {
				v := (u + e) % nodes
				w := int64((u*e)%17 + 1)
				if dist[u]+w < dist[v] {
					dist[v] = dist[u] + w
				}
			}
		}
		dist[it%nodes] += int64(it % 3)
	}
	acc := uint64(0)
	for _, d := range dist {
		acc = acc*31 + uint64(d)
	}
	return acc
}

// kOmnetpp: binary-heap discrete-event churn.
func kOmnetpp(n int) uint64 {
	heap := make([]uint64, 0, 64)
	push := func(v uint64) {
		heap = append(heap, v)
		i := len(heap) - 1
		for i > 0 && heap[(i-1)/2] > heap[i] {
			heap[(i-1)/2], heap[i] = heap[i], heap[(i-1)/2]
			i = (i - 1) / 2
		}
	}
	pop := func() uint64 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && heap[l] < heap[m] {
				m = l
			}
			if r < last && heap[r] < heap[m] {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	seed := uint64(0x9E3779B97F4A7C15)
	acc := uint64(0)
	for i := 0; i < 32; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		push(seed >> 16)
	}
	for it := 0; it < n; it++ {
		t := pop()
		acc ^= t
		seed = seed*6364136223846793005 + 1442695040888963407
		push(t + (seed >> 48) + 1)
	}
	return acc
}

// kXalanc: tag tokenizer + depth bookkeeping (XSLT-ish).
func kXalanc(n int) uint64 {
	doc := []byte("<a><b x='1'><c>text</c></b><d/><e><f>42</f></e></a>")
	acc := uint64(0)
	for it := 0; it < n; it++ {
		depth := 0
		for i := 0; i < len(doc); i++ {
			if doc[i] == '<' {
				if i+1 < len(doc) && doc[i+1] == '/' {
					depth--
				} else {
					depth++
				}
				acc = acc*131 + uint64(depth) + uint64(doc[i])
			}
		}
		acc ^= uint64(it)
	}
	return acc
}

// kX264: 8x8 SAD block search.
func kX264(n int) uint64 {
	const d = 16
	var ref, cur [d][d]uint8
	for i := range ref {
		for j := range ref[i] {
			ref[i][j] = uint8(i*31 + j*7)
			cur[i][j] = uint8(i*29 + j*11)
		}
	}
	best := uint64(0)
	for it := 0; it < n; it++ {
		minSAD := ^uint64(0)
		for dy := 0; dy < d-8; dy++ {
			for dx := 0; dx < d-8; dx++ {
				sad := uint64(0)
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						a, b := int(cur[y][x]), int(ref[y+dy][x+dx])
						if a > b {
							sad += uint64(a - b)
						} else {
							sad += uint64(b - a)
						}
					}
				}
				if sad < minSAD {
					minSAD = sad
				}
			}
		}
		best ^= minSAD + uint64(it)
		cur[it%d][(it*3)%d]++
	}
	return best
}

// kDeepsjeng: bitboard knight-move population counting.
func kDeepsjeng(n int) uint64 {
	acc := uint64(0)
	occ := uint64(0x00FF00000000FF00)
	for it := 0; it < n; it++ {
		for sq := 0; sq < 64; sq++ {
			b := uint64(1) << uint(sq)
			moves := (b<<17 | b<<15 | b<<10 | b<<6 | b>>17 | b>>15 | b>>10 | b>>6) &^ occ
			// popcount
			x := moves
			cnt := 0
			for ; x != 0; x &= x - 1 {
				cnt++
			}
			acc += uint64(cnt)
		}
		occ = occ<<1 | occ>>63
	}
	return acc
}

// kLeela: xorshift playout scoring on a small board.
func kLeela(n int) uint64 {
	var board [81]int8
	rng := uint64(88172645463325252)
	score := uint64(0)
	for it := 0; it < n; it++ {
		for mv := 0; mv < 16; mv++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			pos := rng % 81
			if board[pos] == 0 {
				board[pos] = int8(1 + int(rng>>62)&1)
				score += uint64(pos)
			}
		}
		for i := range board {
			if board[i] != 0 && (it+i)%23 == 0 {
				board[i] = 0
			}
		}
	}
	return score ^ rng
}

// kExchange2: permutation-based recursive placement (sudoku flavor).
func kExchange2(n int) uint64 {
	acc := uint64(0)
	var place func(perm []int, used uint32, depth int) int
	place = func(perm []int, used uint32, depth int) int {
		if depth == len(perm) {
			return 1
		}
		cnt := 0
		for v := 0; v < len(perm); v++ {
			if used&(1<<uint(v)) != 0 {
				continue
			}
			if depth > 0 && (perm[depth-1]+v)%3 == 0 {
				continue
			}
			perm[depth] = v
			cnt += place(perm, used|1<<uint(v), depth+1)
		}
		return cnt
	}
	for it := 0; it < n; it++ {
		perm := make([]int, 6)
		perm[0] = it % 6
		acc += uint64(place(perm, 1<<uint(it%6), 1))
	}
	return acc
}

// kXz: LZ77-style match finding plus a range-mixer.
func kXz(n int) uint64 {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte((i * i) % 251)
	}
	acc := uint64(0)
	for it := 0; it < n; it++ {
		state := uint64(it + 1)
		for pos := 8; pos < len(data)-4; pos++ {
			bestLen := 0
			for back := 1; back <= 8; back++ {
				l := 0
				for l < 4 && data[pos+l] == data[pos-back+l] {
					l++
				}
				if l > bestLen {
					bestLen = l
				}
			}
			state = state*0x100000001B3 ^ uint64(bestLen)
		}
		acc ^= state
	}
	return acc
}

// Checksums runs every kernel once (one unit) and returns name->checksum;
// used by determinism tests.
func Checksums() map[string]uint64 {
	out := map[string]uint64{}
	for _, b := range All() {
		out[b.Name] = b.Kernel(1)
	}
	return out
}

// SortedBySuite returns the benchmarks grouped fprate-then-intrate, stable
// in paper order (the paper's Table 2 lists FP first).
func SortedBySuite() []*Benchmark {
	all := All()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Suite != all[j].Suite {
			return all[i].Suite == FPRate
		}
		return false
	})
	return all
}
