// Command noallocmain is the main-package fixture for the noalloc
// analyzer: a plain `go build .` here would write an executable into
// this directory, which the analyzer must not do.
package main

// sum adds xs without allocating.
//
//renamed:noalloc
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func main() { println(sum([]int{1, 2, 3})) }
