package problems

import "math"

// HeatInitial samples the standard smooth initial condition
// u(x, y) = sin(πx)·sin(πy) at the interior points of rows [jlo, jhi) of
// an nx×ny grid, row-major. The LFLR heat apps start each rank's strip
// from it, and so does the serial reference their tests compare against
// (internal/lflr/reference_test.go), so both start from the same bits.
func HeatInitial(nx, ny, jlo, jhi int) []float64 {
	u := make([]float64, (jhi-jlo)*nx)
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			x := float64(i+1) / float64(nx+1)
			y := float64(j+1) / float64(ny+1)
			u[(j-jlo)*nx+i] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	return u
}
