module csoutlier/benchmark

go 1.22

require csoutlier v0.0.0

replace csoutlier => ../
