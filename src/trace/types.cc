#include "trace/types.h"

#include "common/check.h"

namespace coldstart::trace {

const char* RuntimeName(Runtime r) {
  switch (r) {
    case Runtime::kCSharp:
      return "C#";
    case Runtime::kCustom:
      return "Custom";
    case Runtime::kGo1x:
      return "Go1.x";
    case Runtime::kJava:
      return "Java";
    case Runtime::kNodeJs:
      return "Node.js";
    case Runtime::kPhp73:
      return "PHP7.3";
    case Runtime::kPython2:
      return "Python2";
    case Runtime::kPython3:
      return "Python3";
    case Runtime::kHttp:
      return "http";
    case Runtime::kUnknown:
      return "unknown";
  }
  return "invalid";
}

const char* TriggerName(Trigger t) {
  switch (t) {
    case Trigger::kApigSync:
      return "APIG-S";
    case Trigger::kApigAsync:
      return "APIG-A";
    case Trigger::kTimer:
      return "TIMER-A";
    case Trigger::kCts:
      return "CTS-A";
    case Trigger::kDis:
      return "DIS-A";
    case Trigger::kLts:
      return "LTS-A";
    case Trigger::kObs:
      return "OBS-A";
    case Trigger::kSmn:
      return "SMN-A";
    case Trigger::kKafka:
      return "KAFKA-A";
    case Trigger::kKafkaSync:
      return "KAFKA-S";
    case Trigger::kWorkflowSync:
      return "workflow-S";
    case Trigger::kWorkflowAsync:
      return "workflow-A";
    case Trigger::kUnknown:
      return "unknown";
  }
  return "invalid";
}

bool IsSynchronous(Trigger t) {
  switch (t) {
    case Trigger::kApigSync:
    case Trigger::kKafkaSync:
    case Trigger::kWorkflowSync:
      return true;
    default:
      return false;
  }
}

const char* TriggerGroupName(TriggerGroup g) {
  switch (g) {
    case TriggerGroup::kApigS:
      return "APIG-S";
    case TriggerGroup::kObsA:
      return "OBS-A";
    case TriggerGroup::kTimerA:
      return "TIMER-A";
    case TriggerGroup::kOtherA:
      return "other A";
    case TriggerGroup::kOtherS:
      return "other S";
    case TriggerGroup::kUnknown:
      return "unknown";
    case TriggerGroup::kWorkflowS:
      return "workflow-S";
  }
  return "invalid";
}

TriggerGroup GroupOf(Trigger t) {
  switch (t) {
    case Trigger::kApigSync:
      return TriggerGroup::kApigS;
    case Trigger::kObs:
      return TriggerGroup::kObsA;
    case Trigger::kTimer:
      return TriggerGroup::kTimerA;
    case Trigger::kWorkflowSync:
      return TriggerGroup::kWorkflowS;
    case Trigger::kUnknown:
      return TriggerGroup::kUnknown;
    default:
      return IsSynchronous(t) ? TriggerGroup::kOtherS : TriggerGroup::kOtherA;
  }
}

const char* ResourceConfigName(ResourceConfig c) {
  switch (c) {
    case ResourceConfig::k300m128:
      return "300-128";
    case ResourceConfig::k400m256:
      return "400-256";
    case ResourceConfig::k600m512:
      return "600-512";
    case ResourceConfig::k1000m1024:
      return "1000-1024";
    case ResourceConfig::k2000m2048:
      return "2000-2048";
    case ResourceConfig::k4000m8192:
      return "4000-8192";
    case ResourceConfig::k26000m32768:
      return "26000-32768";
  }
  return "invalid";
}

int32_t CpuMillicoresOf(ResourceConfig c) {
  switch (c) {
    case ResourceConfig::k300m128:
      return 300;
    case ResourceConfig::k400m256:
      return 400;
    case ResourceConfig::k600m512:
      return 600;
    case ResourceConfig::k1000m1024:
      return 1000;
    case ResourceConfig::k2000m2048:
      return 2000;
    case ResourceConfig::k4000m8192:
      return 4000;
    case ResourceConfig::k26000m32768:
      return 26000;
  }
  return 0;
}

int32_t MemoryMbOf(ResourceConfig c) {
  switch (c) {
    case ResourceConfig::k300m128:
      return 128;
    case ResourceConfig::k400m256:
      return 256;
    case ResourceConfig::k600m512:
      return 512;
    case ResourceConfig::k1000m1024:
      return 1024;
    case ResourceConfig::k2000m2048:
      return 2048;
    case ResourceConfig::k4000m8192:
      return 8192;
    case ResourceConfig::k26000m32768:
      return 32768;
  }
  return 0;
}

PoolSizeClass SizeClassOf(ResourceConfig c) {
  return (CpuMillicoresOf(c) <= 400 && MemoryMbOf(c) <= 256) ? PoolSizeClass::kSmall
                                                             : PoolSizeClass::kLarge;
}

const char* PoolSizeClassName(PoolSizeClass c) {
  return c == PoolSizeClass::kSmall ? "small" : "large";
}

const char* ConfigGroupName(ConfigGroup g) {
  switch (g) {
    case ConfigGroup::k300m128:
      return "300CPU,128MB";
    case ConfigGroup::k400m256:
      return "400CPU,256MB";
    case ConfigGroup::k600m512:
      return "600CPU,512MB";
    case ConfigGroup::k1000m1024:
      return "1000CPU,1024MB";
    case ConfigGroup::kOther:
      return "other";
  }
  return "invalid";
}

ConfigGroup ConfigGroupOf(ResourceConfig c) {
  switch (c) {
    case ResourceConfig::k300m128:
      return ConfigGroup::k300m128;
    case ResourceConfig::k400m256:
      return ConfigGroup::k400m256;
    case ResourceConfig::k600m512:
      return ConfigGroup::k600m512;
    case ResourceConfig::k1000m1024:
      return ConfigGroup::k1000m1024;
    default:
      return ConfigGroup::kOther;
  }
}

std::string RegionName(RegionId r) {
  COLDSTART_CHECK_LT(r, kNumRegions);
  // Built from its two characters: GCC 12 at -O3 reports a false -Wrestrict
  // inside "R" + std::to_string(...).
  static_assert(kNumRegions <= 9, "region names are one digit");
  return {'R', static_cast<char>('1' + r)};
}

}  // namespace coldstart::trace
