#pragma once

#include "sim/clock.h"

struct Widget {
  int knobs = 0;
};
