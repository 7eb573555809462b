package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = A(i,j)
}

// NewDense allocates a zero matrix of the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("la: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns A(i, j).
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns A(i, j) = v.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// MatMul computes C = A·B into a fresh matrix.
func (a *Dense) MatMul(b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("la: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// Equal reports elementwise equality within tol (absolute).
func (a *Dense) Equal(b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// RandomDense fills a matrix with uniform values in [-1, 1) drawn from
// next (a machine.RNG's Float64, passed as a closure to keep la free of
// that dependency).
func RandomDense(rows, cols int, next func() float64) *Dense {
	a := NewDense(rows, cols)
	for i := range a.Data {
		a.Data[i] = 2*next() - 1
	}
	return a
}
