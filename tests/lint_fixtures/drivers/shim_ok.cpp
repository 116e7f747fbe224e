// Clean driver TU: a layerless file whose only project include is a lab/
// header — exactly what the driver-include rule demands (apps/impact.cpp
// has this shape).
#include "lab/driver.hpp"

int main(int argc, char** argv) {
  return impact::lab::impact_main(argc, argv);
}
