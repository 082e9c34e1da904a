//go:build !race

package bench

const raceBuild = false
